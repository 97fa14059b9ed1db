#include "src/tools/options.h"

#include <cstdio>
#include <optional>

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

ParseResult ParseSharedFlag(const char* binary, int argc, char** argv, int& i,
                            SharedFlags& flags) {
  const std::string arg = argv[i];
  if (arg == "--no-prefilter") {
    flags.prefilter = false;
    return ParseResult::kParsed;
  }
  std::string value;
  int m = MatchValueFlag(binary, "--triage", argc, argv, i, value);
  if (m != 0) {
    if (m < 0) {
      return ParseResult::kError;
    }
    // Validate now so a typo fails at the prompt, not mid-diagnosis.
    StatusOr<analysis::TriagePipeline> pipeline = analysis::TriagePipelineFromSpec(value);
    if (!pipeline.ok()) {
      std::fprintf(stderr, "%s: --triage: %s\n", binary,
                   pipeline.status().ToString().c_str());
      return ParseResult::kError;
    }
    flags.triage_set = true;
    flags.triage_spec = value;
    return ParseResult::kParsed;
  }
  m = MatchValueFlag(binary, "--log-level", argc, argv, i, value);
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
      "  --no-prefilter    disable the static triage pre-filter: every race\n"
      "                    pays for its dynamic flip test. Chains and verdicts\n"
      "                    are bit-identical either way; only the re-execution\n"
      "                    count and the prefilter.* metrics change\n"
      "  --triage SPEC     static triage stages to run, in order, e.g.\n"
      "                    'hb,lockset,mhp' (the default) or 'none'\n"
      "  --log-level L     debug|info|warn|error|off (default: the\n"
      "                    AITIA_LOG_LEVEL env var, else info)\n";
}

analysis::TriagePipeline ResolveTriagePipeline(const SharedFlags& flags) {
  if (!flags.prefilter) {
    return {};  // --no-prefilter wins over --triage
  }
  if (flags.triage_set) {
    // The spec was validated when the flag was parsed.
    StatusOr<analysis::TriagePipeline> pipeline =
        analysis::TriagePipelineFromSpec(flags.triage_spec);
    return pipeline.ok() ? *std::move(pipeline) : analysis::TriagePipeline{};
  }
  return analysis::DefaultTriagePipeline();
}

}  // namespace tools
}  // namespace aitia
