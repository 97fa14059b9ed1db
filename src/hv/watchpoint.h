// Watchpoints: trap-on-address-access, the mechanism the AITIA hypervisor
// uses to detect data races at a preemption point (§4.3, Figure 8).
//
// The enforcer installs a watchpoint over the address a preempted
// instruction referenced; any access by another thread while the owner is
// parked is reported as a hit — i.e., a data race with the preempted
// instruction.

#ifndef SRC_HV_WATCHPOINT_H_
#define SRC_HV_WATCHPOINT_H_

#include <vector>

#include "src/sim/access.h"
#include "src/sim/types.h"

namespace aitia {

struct WatchpointHit {
  // The instruction the watchpoint was armed for (the parked side).
  DynInstr owner;
  Addr addr = 0;
  // The access that tripped the watchpoint.
  ExecEvent access;
};

class Watchpoints {
 public:
  void Arm(DynInstr owner, Addr addr, Addr len, bool owner_is_write) {
    armed_.push_back({owner, addr, len, owner_is_write});
  }

  void DisarmAll() { armed_.clear(); }
  void Disarm(DynInstr owner) {
    std::erase_if(armed_, [&](const Armed& a) { return a.owner == owner; });
  }

  // Feeds one retired event; records hits from other threads whose access
  // conflicts (overlap + at least one write) with the armed address.
  void Observe(const ExecEvent& e) {
    if (!e.is_access) {
      return;
    }
    for (const Armed& a : armed_) {
      if (e.di.tid == a.owner.tid) {
        continue;
      }
      const bool overlap = e.addr < a.addr + a.len && a.addr < e.addr + e.len;
      if (overlap && (e.is_write || a.owner_is_write)) {
        hits_.push_back({a.owner, a.addr, e});
      }
    }
  }

  const std::vector<WatchpointHit>& hits() const { return hits_; }

 private:
  struct Armed {
    DynInstr owner;
    Addr addr = 0;
    Addr len = 1;
    bool owner_is_write = false;
  };

  std::vector<Armed> armed_;
  std::vector<WatchpointHit> hits_;
};

}  // namespace aitia

#endif  // SRC_HV_WATCHPOINT_H_
