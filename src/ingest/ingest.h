// Trace ingestion frontend — one-call entry points.
//
// A .ait trace arrives as text (a file, a request body, a fuzzer artifact),
// is parsed and assembled into a BugScenario, and feeds the LIFS + Causality
// pipeline. The built-in corpus is the same language: src/bugs/corpus/*.ait,
// which the registry assembles once per process with ParseTraceText and
// AssembleScenario directly, so that loading it adds no ingest span or
// counter. These entry points count and trace every user input.

#ifndef SRC_INGEST_INGEST_H_
#define SRC_INGEST_INGEST_H_

#include <string>
#include <string_view>

#include "src/bugs/scenario.h"
#include "src/ingest/assemble.h"
#include "src/ingest/parser.h"
#include "src/ingest/serialize.h"
#include "src/util/status.h"

namespace aitia {

// Parses and assembles .ait text. `filename` prefixes diagnostics.
StatusOr<BugScenario> ScenarioFromAitText(std::string_view text, const std::string& filename);

// Reads, parses, and assembles a .ait file. Returns kNotFound when the file
// cannot be read.
StatusOr<BugScenario> ScenarioFromAitFile(const std::string& path);

}  // namespace aitia

#endif  // SRC_INGEST_INGEST_H_
