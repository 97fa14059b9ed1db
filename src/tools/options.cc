#include "src/tools/options.h"

#include <cstdio>
#include <optional>
#include <string>

#include "src/util/log.h"

namespace aitia {
namespace tools {
namespace {

// Matches `--flag value` and `--flag=value`; 1 = matched (value filled,
// i advanced), 0 = no match, -1 = flag given without a value.
int MatchValueFlag(const char* binary, const char* flag, int argc, char** argv,
                   int& i, std::string& value) {
  const std::string arg = argv[i];
  if (arg == flag) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", binary, flag);
      return -1;
    }
    value = argv[++i];
    return 1;
  }
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) == 0) {
    value = arg.substr(prefix.size());
    return 1;
  }
  return 0;
}

}  // namespace

ParseResult ParseSharedFlag(const char* binary, int argc, char** argv, int& i) {
  std::string value;
  const int m = MatchValueFlag(binary, "--log-level", argc, argv, i, value);
  if (m != 0) {
    if (m < 0) {
      return ParseResult::kError;
    }
    const std::optional<LogLevel> level = ParseLogLevel(value);
    if (!level.has_value()) {
      std::fprintf(stderr, "%s: --log-level expects debug|info|warn|error|off, got '%s'\n",
                   binary, value.c_str());
      return ParseResult::kError;
    }
    SetLogLevel(*level);
    return ParseResult::kParsed;
  }
  return ParseResult::kNotShared;
}

const char* SharedFlagsHelp() {
  return
      "  --log-level L     debug|info|warn|error|off (default: the\n"
      "                    AITIA_LOG_LEVEL env var, else info)\n";
}

}  // namespace tools
}  // namespace aitia
