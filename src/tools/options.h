// Command-line flags shared by the aitia and aitiad binaries.
//
// Both tools drive the same diagnosis pipeline, so the flags that configure
// it — the static triage pre-filter, log level — are parsed
// here once instead of being duplicated (and drifting) in each main. Both
// `--flag value` and `--flag=value` forms are accepted. Binary-specific
// flags stay in their mains.

#ifndef SRC_TOOLS_OPTIONS_H_
#define SRC_TOOLS_OPTIONS_H_

#include <string>

#include "src/analysis/triage.h"
#include "src/util/status.h"

namespace aitia {
namespace tools {

struct SharedFlags {
  // --no-prefilter: run every dynamic flip test (triage pipeline cleared).
  bool prefilter = true;
  // --triage SPEC: comma-separated stage list, validated at parse time.
  bool triage_set = false;
  std::string triage_spec;
};

enum class ParseResult {
  kNotShared,  // not a shared flag; the caller's parser handles it
  kParsed,     // consumed (i advanced past any value argument)
  kError,      // bad value; diagnostic already printed to stderr
};

// Tries to parse argv[i] as a shared flag. `binary` prefixes diagnostics
// ("aitia: ..."). --log-level takes effect immediately via SetLogLevel.
ParseResult ParseSharedFlag(const char* binary, int argc, char** argv, int& i,
                            SharedFlags& flags);

// The usage text block for the shared flags, for embedding in --help output.
const char* SharedFlagsHelp();

// The triage pipeline the flags select: empty under --no-prefilter (which
// wins over --triage), the --triage spec when given, else the default.
analysis::TriagePipeline ResolveTriagePipeline(const SharedFlags& flags);

}  // namespace tools
}  // namespace aitia

#endif  // SRC_TOOLS_OPTIONS_H_
