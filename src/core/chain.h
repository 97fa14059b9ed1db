// The causality chain — AITIA's root-cause representation (§1, §2.1).
//
// Nodes are interleaving orders of data races from the root cause set.
// Mutually dependent races (flipping either makes the other disappear) are
// merged into one conjunction node — this is what renders CVE-2017-15649's
// chain as "(A2=>B11) ∧ (B2=>A6) → (A6=>B12) → (B17=>A12) → BUG_ON"
// (Figure 6). Edges carry "this order steers control flow into that race";
// the terminal node leads to the failure.

#ifndef SRC_CORE_CHAIN_H_
#define SRC_CORE_CHAIN_H_

#include <string>
#include <vector>

#include "src/analysis/races.h"
#include "src/sim/failure.h"
#include "src/sim/program.h"

namespace aitia {

// Short human label of one race order, e.g. "A6 => B12". Uses the leading
// "X:" tag of the instruction notes when present.
std::string RaceLabel(const KernelImage& image, const RacePair& race);

struct ChainNode {
  // Conjunction of races that jointly steer the next step.
  std::vector<RacePair> races;
  bool ambiguous = false;
};

class CausalityChain {
 public:
  CausalityChain() = default;

  // Builds the chain from the root-cause races and the disappearance
  // relation: `disappears[i]` lists indices (into `races`) of root-cause
  // races that did not occur while race i was flipped. Strongly connected
  // components become conjunction nodes; edges are transitively reduced.
  static CausalityChain Build(const std::vector<RacePair>& races,
                              const std::vector<std::vector<size_t>>& disappears,
                              const std::vector<bool>& ambiguous, const Failure& failure);

  const std::vector<ChainNode>& nodes() const { return nodes_; }
  const std::vector<std::pair<size_t, size_t>>& edges() const { return edges_; }
  const Failure& failure() const { return failure_; }

  // Total number of data races in the chain (the Table 3 "# of races in
  // chain" statistic).
  size_t race_count() const;
  bool has_ambiguity() const;

  // One-line rendering in the style of Figure 3 / Figure 6(b).
  std::string Render(const KernelImage& image) const;

 private:
  std::vector<ChainNode> nodes_;       // topologically ordered, cause first
  std::vector<std::pair<size_t, size_t>> edges_;  // node index -> node index
  Failure failure_;
};

}  // namespace aitia

#endif  // SRC_CORE_CHAIN_H_
