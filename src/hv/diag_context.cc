#include "src/hv/diag_context.h"

namespace aitia {

Status DiagContext::Interrupted() const {
  if (cancel && cancel()) {
    return Status::Cancelled("diagnosis cancelled");
  }
  if (deadline != Clock::time_point::max() && Clock::now() > deadline) {
    return Status::DeadlineExceeded("diagnosis deadline exceeded");
  }
  return OkStatus();
}

}  // namespace aitia
