#include "src/core/report.h"

#include "src/util/strings.h"

namespace aitia {

std::string ReportToJson(const AitiaReport& report, const KernelImage& image) {
  std::string json = "{";
  json += StrFormat("\"diagnosed\": %s", report.diagnosed ? "true" : "false");
  json += StrFormat(", \"degraded\": %s", report.degraded ? "true" : "false");
  if (!report.status.ok()) {
    json += StrFormat(", \"status\": \"%s\"", JsonEscape(report.status.ToString()).c_str());
  }
  json += StrFormat(", \"slices_tried\": %zu", report.slices_tried);

  if (report.lifs.failure.has_value()) {
    const Failure& f = *report.lifs.failure;
    json += StrFormat(
        ", \"failure\": {\"type\": \"%s\", \"thread\": %d, \"prog\": %d, \"pc\": %d, "
        "\"message\": \"%s\"}",
        JsonEscape(FailureTypeName(f.type)).c_str(), f.tid, f.at.prog, f.at.pc,
        JsonEscape(f.message).c_str());
  }

  json += StrFormat(
      ", \"lifs\": {\"reproduced\": %s, \"interleavings\": %d, \"schedules\": %lld, "
      "\"pruned\": %lld, \"seconds\": %.6f}",
      report.lifs.reproduced ? "true" : "false", report.lifs.interleaving_count,
      static_cast<long long>(report.lifs.schedules_executed),
      static_cast<long long>(report.lifs.schedules_pruned), report.lifs.seconds);

  // Always emitted, even for undiagnosed reports: the diagnosis's own
  // metrics are the flight-recorder readout of what the pipeline did.
  json += ", \"metrics\": " + report.metrics.ToJson();

  if (!report.diagnosed) {
    return json + "}";
  }

  const RunBudget& budget = report.causality.budget;
  json += StrFormat(
      ", \"causality\": {\"schedules\": %lld, \"benign\": %d, \"inconclusive\": %d, "
      "\"ambiguous\": %s, \"degraded\": %s, \"seconds\": %.6f, "
      "\"budget\": {\"attempts\": %lld, \"exhausted\": %lld, "
      "\"deadline_expirations\": %lld, \"watchdog_trips\": %lld}}",
      static_cast<long long>(report.causality.schedules_executed),
      report.causality.benign_count, report.causality.inconclusive_count,
      report.causality.ambiguous ? "true" : "false",
      report.causality.degraded ? "true" : "false", report.causality.seconds,
      static_cast<long long>(budget.attempts), static_cast<long long>(budget.exhausted),
      static_cast<long long>(budget.deadline_expirations),
      static_cast<long long>(budget.watchdog_trips));

  json += ", \"races\": [";
  for (size_t i = 0; i < report.causality.tested.size(); ++i) {
    const TestedRace& t = report.causality.tested[i];
    if (i != 0) {
      json += ", ";
    }
    json += StrFormat(
        "{\"label\": \"%s\", \"verdict\": \"%s\", \"phantom\": %s, "
        "\"critical_section\": %s}",
        JsonEscape(RaceLabel(image, t.race)).c_str(), RaceVerdictName(t.verdict),
        t.phantom ? "true" : "false", t.race.cs_pair ? "true" : "false");
  }
  json += "]";

  const CausalityChain& chain = report.causality.chain;
  json += StrFormat(", \"chain\": {\"rendered\": \"%s\", \"nodes\": [",
                    JsonEscape(chain.Render(image)).c_str());
  for (size_t n = 0; n < chain.nodes().size(); ++n) {
    const ChainNode& node = chain.nodes()[n];
    if (n != 0) {
      json += ", ";
    }
    json += "{\"races\": [";
    for (size_t r = 0; r < node.races.size(); ++r) {
      if (r != 0) {
        json += ", ";
      }
      json += "\"" + JsonEscape(RaceLabel(image, node.races[r])) + "\"";
    }
    json += StrFormat("], \"ambiguous\": %s}", node.ambiguous ? "true" : "false");
  }
  json += "], \"edges\": [";
  for (size_t e = 0; e < chain.edges().size(); ++e) {
    if (e != 0) {
      json += ", ";
    }
    json += StrFormat("[%zu, %zu]", chain.edges()[e].first, chain.edges()[e].second);
  }
  json += "]}}";
  return json;
}

}  // namespace aitia
