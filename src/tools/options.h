// Command-line flags shared by the aitia and aitiad binaries.
//
// Both tools drive the same diagnosis pipeline, so the flags they share —
// today only --log-level — are parsed here once instead of being duplicated
// (and drifting) in each main. Both `--flag value` and `--flag=value` forms
// are accepted. Binary-specific flags stay in their mains.

#ifndef SRC_TOOLS_OPTIONS_H_
#define SRC_TOOLS_OPTIONS_H_

namespace aitia {
namespace tools {

enum class ParseResult {
  kNotShared,  // not a shared flag; the caller's parser handles it
  kParsed,     // consumed (i advanced past any value argument)
  kError,      // bad value; diagnostic already printed to stderr
};

// Tries to parse argv[i] as a shared flag. `binary` prefixes diagnostics
// ("aitia: ..."). --log-level takes effect immediately via SetLogLevel.
ParseResult ParseSharedFlag(const char* binary, int argc, char** argv, int& i);

// The usage text block for the shared flags, for embedding in --help output.
const char* SharedFlagsHelp();

}  // namespace tools
}  // namespace aitia

#endif  // SRC_TOOLS_OPTIONS_H_
