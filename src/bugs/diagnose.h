// Convenience wrapper: diagnose a bundled scenario with its ground-truth
// symptom type and IRQ lines applied to the options, under `ctx` as
// DiagnoseSlice does.

#ifndef SRC_BUGS_DIAGNOSE_H_
#define SRC_BUGS_DIAGNOSE_H_

#include "src/bugs/scenario.h"
#include "src/core/aitia.h"

namespace aitia {

AitiaReport DiagnoseScenario(const BugScenario& scenario, AitiaOptions options = {},
                             DiagContext* ctx = nullptr);

}  // namespace aitia

#endif  // SRC_BUGS_DIAGNOSE_H_
