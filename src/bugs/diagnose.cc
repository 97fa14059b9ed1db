#include "src/bugs/diagnose.h"

namespace aitia {

AitiaReport DiagnoseScenario(const BugScenario& scenario, AitiaOptions options,
                             DiagContext* ctx) {
  if (!options.lifs.target.has_value() && !options.lifs.target_type.has_value() &&
      scenario.truth.failure_type != FailureType::kNone) {
    options.lifs.target_type = scenario.truth.failure_type;
  }
  if (options.lifs.irq_lines.empty()) {
    options.lifs.irq_lines = scenario.irq_lines;
  }
  return DiagnoseSlice(*scenario.image, scenario.slice, scenario.setup, options, ctx);
}

}  // namespace aitia
