// Serializer: BugScenario -> .ait text.
//
// Emits any scenario — generated against ProgramBuilder (src/gen) or
// assembled from a trace — as a parseable .ait document. Labels are
// reconstructed from branch targets as "L<pc>"; a global whose initial value
// is another global's address round-trips as "&name".
// serialize(parse(serialize(s))) == serialize(s) holds for every corpus
// scenario (golden-tested).

#ifndef SRC_INGEST_SERIALIZE_H_
#define SRC_INGEST_SERIALIZE_H_

#include <cstdint>
#include <string>

#include "src/bugs/scenario.h"

namespace aitia {

std::string ScenarioToAit(const BugScenario& scenario);

// Stable identity of a scenario's *content*: the FNV-1a hash of its
// canonical .ait serialization. Two scenarios that assemble to the same
// kernel image, slice, and setup — whether they arrived as inline .ait text,
// a file, or a corpus id — hash identically, which is what makes the service
// layer's result cache idempotent across request forms.
uint64_t ScenarioFingerprint(const BugScenario& scenario);

}  // namespace aitia

#endif  // SRC_INGEST_SERIALIZE_H_
