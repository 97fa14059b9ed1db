// Kernel concurrency idiom templates — the corpus expansion engine's
// vocabulary (DESIGN.md §14).
//
// Each template is a parameterized shape of a real kernel concurrency bug
// class, mined from the idioms the curated corpus (Tables 2/3) exercises by
// hand: RCU-style grace-period use-after-free, workqueue flush-vs-free,
// refcount release races, flag-guarded ABBA lock ordering, read-check-use
// atomicity violations, and fig-1-style two-variable order violations —
// plus a provably failure-free template that carries only salted benign
// races, so the sweep can pin "LIFS never fabricates a failure".
//
// The contract every buggy template obeys:
//   * the sequential base order (slice order, no preemption) is clean, so
//     the failure is a genuine concurrency bug reachable only by
//     interleaving;
//   * the failure is reachable within <= 2 preemptions, LIFS's corpus-wide
//     envelope (§5.1);
//   * `truth.failure_type` names the planted symptom and
//     `truth.racing_globals` the planted racing state, so the generic chain
//     checks (RacingAddressRanges) apply to generated scenarios unchanged.

#ifndef SRC_GEN_TEMPLATES_H_
#define SRC_GEN_TEMPLATES_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/bugs/scenario.h"

namespace aitia {
namespace gen {

enum class GenTemplate {
  kOrder,      // two-variable order violation -> NULL deref (fig-1 shape)
  kAtomicity,  // read-check-use atomicity violation -> BUG_ON
  kRcu,        // RCU grace-period race -> use-after-free read
  kWorkqueue,  // workqueue flush-vs-free -> use-after-free write
  kRefcount,   // refcount release race -> refcount warning
  kAbba,       // flag-guarded ABBA lock ordering -> deadlock
  kBenign,     // salted benign races only; no interleaving can fail
};

// Stable lowercase token ("order", "atomicity", "rcu", "workqueue",
// "refcount", "abba", "benign") used in scenario ids, CLI specs, and the
// sweep's per-template accounting.
const char* GenTemplateName(GenTemplate t);
bool ParseGenTemplate(std::string_view token, GenTemplate* out);

// All templates, buggy ones first, kBenign last.
const std::vector<GenTemplate>& AllGenTemplates();

// Interleaving knobs. Every knob preserves the template contract above —
// knobs change how much bystander work surrounds the planted mechanism and
// how wide its vulnerability window is, never whether the base order is
// clean or whether the symptom stays reachable.
struct GenKnobs {
  // Filler accesses widening the planted vulnerability window (0..3).
  int window = 1;
  // Salted benign race sites per thread (0..2): a racy stats counter, a
  // silent same-value store pair, and a dead read. Flipping any of them
  // leaves the failure intact.
  int salt = 1;
  // Benign bystander threads added to the slice (0..1; slices stay <= 3
  // threads, the corpus metadata rule).
  int extra_threads = 0;
  // kAbba: locks in the ordering cycle (2..4). kBenign: when >= 2, both
  // threads take this many locks in the *same* order (deadlock-free by
  // construction, exercises critical-section pairs).
  int lock_depth = 2;
  // Adds a hardware-IRQ line whose handler performs one benign salted
  // access (exercises §4.6 IRQ injection against generated scenarios).
  bool irq = false;
};

// A generated scenario plus the generator's expectations about it. The
// planted ground truth rides on scenario.truth (failure_type,
// racing_globals) exactly like a curated bug; the extra fields are what the
// sweep asserts beyond diagnosis.
struct GeneratedScenario {
  BugScenario scenario;
  // False only for kBenign: no interleaving of the scenario can fail, so
  // any reproduction is a fabricated failure.
  bool expect_failure = true;
  // Names of the salted benign-race globals. These must never appear in a
  // causality chain (their flips leave the failure intact).
  std::vector<std::string> benign_globals;
};

}  // namespace gen
}  // namespace aitia

#endif  // SRC_GEN_TEMPLATES_H_
