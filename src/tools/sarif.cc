#include "src/tools/sarif.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/chain.h"
#include "src/ingest/parser.h"
#include "src/ingest/serialize.h"
#include "src/util/strings.h"

namespace aitia {
namespace tools {
namespace {

// Instruction -> .ait line provenance, recovered by round-tripping the
// scenario through its canonical serialization: ScenarioToAit emits the
// document, ParseTraceText hands back SourcePos for every instruction, and
// pc is the index among a program's non-label items (labels are pseudo-ops
// that assemble to nothing). This works for *any* scenario — generated
// ones included — because serialization is total.
std::map<std::pair<std::string, int>, int> BuildLineMap(const TraceDoc& doc) {
  std::map<std::pair<std::string, int>, int> lines;
  for (const AitProgram& prog : doc.programs) {
    int pc = 0;
    for (const AitInstr& item : prog.items) {
      if (item.info != nullptr && item.info->is_label) {
        continue;
      }
      lines[{prog.name, pc++}] = item.pos.line;
    }
  }
  return lines;
}

// 1-based .ait line of an instruction; 0 when unresolvable (no failure
// point, e.g. a leak, or a program id outside the serialized image).
int LineOf(const KernelImage& image, const std::map<std::pair<std::string, int>, int>& lines,
           InstrAddr at) {
  if (at.prog == kNoProgram || static_cast<size_t>(at.prog) >= image.programs().size()) {
    return 0;
  }
  const auto it = lines.find({image.program(at.prog).name, static_cast<int>(at.pc)});
  return it == lines.end() ? 0 : it->second;
}

// The `line`-th (1-based) line of `text`, for region snippets.
std::string LineText(const std::string& text, int line) {
  size_t begin = 0;
  for (int n = 1; n < line; ++n) {
    const size_t nl = text.find('\n', begin);
    if (nl == std::string::npos) {
      return "";
    }
    begin = nl + 1;
  }
  const size_t end = text.find('\n', begin);
  return text.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
}

// {"physicalLocation": {...}} — the shared core of locations and
// threadFlowLocations. Line 0 (unresolvable) pins to line 1 with no snippet.
std::string PhysicalLocation(const std::string& uri, int line, const std::string& ait_text) {
  std::string region = StrFormat("{\"startLine\":%d", line > 0 ? line : 1);
  if (line > 0) {
    const std::string snippet = LineText(ait_text, line);
    if (!snippet.empty()) {
      region += StrFormat(",\"snippet\":{\"text\":\"%s\"}", JsonEscape(snippet).c_str());
    }
  }
  region += "}";
  return StrFormat(
      "{\"artifactLocation\":{\"uri\":\"%s\",\"index\":0},\"region\":%s}",
      JsonEscape(uri).c_str(), region.c_str());
}

std::string LocationWithMessage(const std::string& uri, int line, const std::string& ait_text,
                                const std::string& message) {
  std::string out = "{\"physicalLocation\":" + PhysicalLocation(uri, line, ait_text);
  if (!message.empty()) {
    out += StrFormat(",\"message\":{\"text\":\"%s\"}", JsonEscape(message).c_str());
  }
  return out + "}";
}

std::string ThreadFlowLocation(const std::string& uri, int line, const std::string& ait_text,
                               const std::string& message, int order) {
  return StrFormat("{\"executionOrder\":%d,\"location\":%s}", order,
                   LocationWithMessage(uri, line, ait_text, message).c_str());
}

std::string JoinJson(const std::vector<std::string>& parts) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += parts[i];
  }
  return out;
}

}  // namespace

std::string SarifRuleId(FailureType type) {
  const char* token = "none";
  switch (type) {
    case FailureType::kNone: token = "none"; break;
    case FailureType::kNullDeref: token = "null-deref"; break;
    case FailureType::kGeneralProtection: token = "general-protection"; break;
    case FailureType::kUseAfterFreeRead: token = "use-after-free-read"; break;
    case FailureType::kUseAfterFreeWrite: token = "use-after-free-write"; break;
    case FailureType::kOutOfBounds: token = "slab-out-of-bounds"; break;
    case FailureType::kDoubleFree: token = "double-free"; break;
    case FailureType::kBadFree: token = "invalid-free"; break;
    case FailureType::kAssertViolation: token = "assert-violation"; break;
    case FailureType::kWarning: token = "warning"; break;
    case FailureType::kRefcountWarning: token = "refcount-warning"; break;
    case FailureType::kMemoryLeak: token = "memory-leak"; break;
    case FailureType::kDeadlock: token = "deadlock"; break;
    case FailureType::kWatchdog: token = "watchdog"; break;
  }
  return std::string("aitia/") + token;
}

std::string ReportToSarif(const BugScenario& scenario, const AitiaReport& report) {
  const KernelImage& image = *scenario.image;
  const std::string ait_text = ScenarioToAit(scenario);
  const std::string uri = (scenario.id.empty() ? std::string("scenario") : scenario.id) + ".ait";

  // The canonical serialization always reparses (golden-tested round-trip);
  // degrade to an empty line map rather than aborting if it ever does not.
  std::map<std::pair<std::string, int>, int> lines;
  if (StatusOr<TraceDoc> doc = ParseTraceText(ait_text, uri); doc.ok()) {
    lines = BuildLineMap(*doc);
  }
  const auto line_of = [&](InstrAddr at) { return LineOf(image, lines, at); };

  std::vector<std::string> rules;
  std::vector<std::string> results;
  if (report.diagnosed && report.lifs.failure.has_value()) {
    const Failure& failure = *report.lifs.failure;
    const std::string rule_id = SarifRuleId(failure.type);
    rules.push_back(StrFormat(
        "{\"id\":\"%s\",\"name\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},"
        "\"defaultConfiguration\":{\"level\":\"error\"}}",
        JsonEscape(rule_id).c_str(), JsonEscape(rule_id).c_str(),
        JsonEscape(FailureTypeName(failure.type)).c_str()));

    const CausalityResult& ca = report.causality;

    // codeFlows[0]: the causality chain, cause first, ending at the failure.
    std::vector<std::string> flows;
    {
      std::vector<std::string> steps;
      int order = 0;
      for (const ChainNode& node : ca.chain.nodes()) {
        for (const RacePair& race : node.races) {
          const std::string label = RaceLabel(image, race);
          steps.push_back(ThreadFlowLocation(
              uri, line_of(race.first.di.at), ait_text,
              label + ": first access " + image.Describe(race.first.di.at), order++));
          steps.push_back(ThreadFlowLocation(
              uri, line_of(race.second.di.at), ait_text,
              label + ": second access " + image.Describe(race.second.di.at), order++));
        }
      }
      steps.push_back(ThreadFlowLocation(uri, line_of(failure.at), ait_text,
                                         "failure: " + failure.ToString(), order++));
      flows.push_back(StrFormat(
          "{\"message\":{\"text\":\"causality chain: %s\"},"
          "\"threadFlows\":[{\"locations\":[%s]}]}",
          JsonEscape(ca.chain.Render(image)).c_str(), JoinJson(steps).c_str()));
    }

    // One codeFlow per root-cause race: the flip/disappearance evidence that
    // earned the verdict.
    for (size_t idx : ca.root_cause_indices) {
      const TestedRace& t = ca.tested[idx];
      const std::string label = RaceLabel(image, t.race);
      std::vector<std::string> steps;
      int order = 0;
      steps.push_back(ThreadFlowLocation(uri, line_of(t.race.first.di.at), ait_text,
                                         label + ": observed order", order++));
      const std::string evidence =
          std::string("flip test: ") +
          (t.flip_took_effect ? "order reversed" : "not enforceable") + "; failure " +
          (t.flip_still_failed ? "persisted" : "disappeared");
      steps.push_back(ThreadFlowLocation(uri, line_of(t.race.second.di.at), ait_text,
                                         label + ": " + evidence, order++));
      for (size_t gone : t.disappeared) {
        steps.push_back(ThreadFlowLocation(
            uri, line_of(ca.tested[gone].race.second.di.at), ait_text,
            RaceLabel(image, ca.tested[gone].race) + ": disappeared in the flipped run",
            order++));
      }
      flows.push_back(StrFormat(
          "{\"message\":{\"text\":\"%s: %s\"},\"threadFlows\":[{\"locations\":[%s]}]}",
          JsonEscape(label).c_str(), JsonEscape(RaceVerdictName(t.verdict)).c_str(),
          JoinJson(steps).c_str()));
    }

    // Per-race verdicts ride in the property bag (SARIF has no native slot
    // for "tested but benign" evidence).
    std::vector<std::string> race_props;
    for (const TestedRace& t : ca.tested) {
      race_props.push_back(StrFormat(
          "{\"label\":\"%s\",\"verdict\":\"%s\",\"phantom\":%s,"
          "\"critical_section\":%s}",
          JsonEscape(RaceLabel(image, t.race)).c_str(), RaceVerdictName(t.verdict),
          t.phantom ? "true" : "false", t.race.cs_pair ? "true" : "false"));
    }

    results.push_back(StrFormat(
        "{\"ruleId\":\"%s\",\"ruleIndex\":0,\"level\":\"error\","
        "\"message\":{\"text\":\"%s\"},\"locations\":[%s],\"codeFlows\":[%s],"
        "\"properties\":{\"scenario\":\"%s\",\"degraded\":%s,\"chain\":\"%s\","
        "\"races\":[%s]}}",
        JsonEscape(rule_id).c_str(),
        JsonEscape(failure.ToString() + " — " + ca.chain.Render(image)).c_str(),
        LocationWithMessage(uri, line_of(failure.at), ait_text, failure.ToString()).c_str(),
        JoinJson(flows).c_str(), JsonEscape(scenario.id).c_str(),
        report.degraded ? "true" : "false", JsonEscape(ca.chain.Render(image)).c_str(),
        JoinJson(race_props).c_str()));
  }

  return StrFormat(
      "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{"
      "\"tool\":{\"driver\":{\"name\":\"aitia\","
      "\"informationUri\":\"https://github.com/aitia/aitia\",\"rules\":[%s]}},"
      "\"artifacts\":[{\"location\":{\"uri\":\"%s\"},\"sourceLanguage\":\"ait\","
      "\"contents\":{\"text\":\"%s\"}}],"
      "\"columnKind\":\"utf16CodeUnits\",\"results\":[%s]}]}",
      JoinJson(rules).c_str(), JsonEscape(uri).c_str(), JsonEscape(ait_text).c_str(),
      JoinJson(results).c_str());
}

}  // namespace tools
}  // namespace aitia
