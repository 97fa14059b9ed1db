#include "src/sim/kernel.h"

#include <cstdlib>

#include "src/util/log.h"
#include "src/util/strings.h"

namespace aitia {

const char* ThreadKindName(ThreadKind kind) {
  switch (kind) {
    case ThreadKind::kSyscall: return "syscall";
    case ThreadKind::kKworker: return "kworker";
    case ThreadKind::kRcuCallback: return "rcu";
    case ThreadKind::kHardIrq: return "hardirq";
  }
  return "?";
}

int64_t RunResult::AccessCount() const {
  int64_t n = 0;
  for (const auto& e : trace) {
    if (e.is_access) {
      ++n;
    }
  }
  return n;
}

KernelSim::KernelSim(const KernelImage* image, const std::vector<ThreadSpec>& initial,
                     const std::vector<ThreadSpec>& setup)
    : image_(image), memory_(*image) {
  auto add_thread = [this](const ThreadSpec& spec) {
    ThreadContext t;
    t.id = static_cast<ThreadId>(threads_.size());
    t.name = spec.name;
    t.prog = spec.prog;
    t.kind = spec.kind;
    t.regs[R0] = spec.arg;
    t.initial_arg = spec.arg;
    threads_.push_back(std::move(t));
    return threads_.back().id;
  };

  if (!setup.empty()) {
    recording_ = false;
    for (const ThreadSpec& spec : setup) {
      add_thread(spec);
    }
    // Run the whole setup phase (including anything it spawns) sequentially.
    constexpr int64_t kSetupStepBudget = 100000;
    int64_t budget = kSetupStepBudget;
    for (;;) {
      ThreadId next = kNoThread;
      for (const auto& t : threads_) {
        if (t.runnable()) {
          next = t.id;
          break;
        }
      }
      if (next == kNoThread || failure_.has_value()) {
        break;
      }
      if (budget-- <= 0) {
        setup_status_ = Status::InvalidArgument(
            StrFormat("setup phase exceeded its %lld-step budget",
                      static_cast<long long>(kSetupStepBudget)));
        break;
      }
      Step(next);
    }
    if (failure_.has_value()) {
      setup_status_ = Status::InvalidArgument("setup phase faulted: " + failure_->ToString());
    } else if (setup_status_.ok()) {
      // No setup thread can run, yet one has not exited: it waits on a lock
      // that nothing in the setup phase will release.
      for (const auto& t : threads_) {
        if (!t.exited()) {
          setup_status_ = Status::InvalidArgument(
              StrFormat("setup phase blocked: setup thread %d (%s) can never exit", t.id,
                        t.name.c_str()));
          break;
        }
      }
    }
    recording_ = true;
    setup_thread_count_ = static_cast<int>(threads_.size());
  }

  for (const ThreadSpec& spec : initial) {
    add_thread(spec);
  }
}

std::vector<ThreadId> KernelSim::RunnableThreads() const {
  std::vector<ThreadId> out;
  for (const auto& t : threads_) {
    if (t.runnable()) {
      out.push_back(t.id);
    }
  }
  return out;
}

bool KernelSim::AllExited() const {
  for (const auto& t : threads_) {
    if (!t.exited()) {
      return false;
    }
  }
  return true;
}

bool KernelSim::Done() const {
  if (failure_.has_value()) {
    return true;
  }
  for (const auto& t : threads_) {
    if (t.runnable()) {
      return false;
    }
  }
  return true;
}

std::optional<InstrAddr> KernelSim::NextInstr(ThreadId tid) const {
  const ThreadContext& t = thread(tid);
  if (t.exited()) {
    return std::nullopt;
  }
  return InstrAddr{t.prog, t.pc};
}

std::optional<DynInstr> KernelSim::NextDynInstr(ThreadId tid) const {
  const ThreadContext& t = thread(tid);
  if (t.exited()) {
    return std::nullopt;
  }
  auto it = t.exec_counts.find(t.pc);
  int32_t occ = it == t.exec_counts.end() ? 0 : it->second;
  return DynInstr{tid, {t.prog, t.pc}, occ};
}

std::optional<KernelSim::PeekedAccess> KernelSim::PeekAccess(ThreadId tid) const {
  const ThreadContext& t = thread(tid);
  if (t.exited()) {
    return std::nullopt;
  }
  const Program& prog = image_->program(t.prog);
  if (t.pc < 0 || t.pc >= prog.size()) {
    return std::nullopt;
  }
  const Instr& instr = prog.At(t.pc);
  if (!IsMemoryAccess(instr.op)) {
    return std::nullopt;
  }
  PeekedAccess out;
  out.is_write = IsWriteAccess(instr.op);
  switch (instr.op) {
    case Op::kStore:
    case Op::kStoreImm:
      out.addr = static_cast<Addr>(t.regs[instr.rd] + instr.imm);
      break;
    case Op::kFree: {
      out.addr = static_cast<Addr>(t.regs[instr.rs]);
      const HeapObject* obj = memory_.FindObject(out.addr);
      out.len = obj != nullptr ? static_cast<Addr>(obj->cells) : 1;
      break;
    }
    default:
      out.addr = static_cast<Addr>(t.regs[instr.rs] + instr.imm);
      break;
  }
  return out;
}

int64_t KernelSim::Record(ThreadContext& t, const Instr& instr, bool is_access, bool is_write,
                          Addr addr, Addr len, Word value) {
  if (!recording_) {
    t.exec_counts[t.pc]++;
    return -1;
  }
  ExecEvent e;
  e.seq = next_seq_++;
  e.di = DynInstr{t.id, {t.prog, t.pc}, t.exec_counts[t.pc]};
  e.op = instr.op;
  e.is_access = is_access;
  e.is_write = is_write;
  e.addr = addr;
  e.len = len;
  e.value = value;
  e.locks_held = t.held_locks;
  trace_.push_back(e);
  t.exec_counts[t.pc]++;
  AckIpi(t.id);
  if (observer_) {
    observer_(trace_.back());
  }
  return e.seq;
}

void KernelSim::AckIpi(ThreadId tid) {
  if (ipi_broadcaster_ == kNoThread || ipi_pending_.erase(tid) == 0) {
    return;
  }
  if (ipi_pending_.empty()) {
    ThreadContext& b = Mut(ipi_broadcaster_);
    if (b.state == ThreadState::kBlocked && b.blocked_on == kIpiWaitAddr) {
      b.state = ThreadState::kRunnable;
      b.blocked_on = 0;
    }
    // The broadcaster retires the flush on its next step (see kTlbFlush).
  }
}

void KernelSim::Fault(FailureType type, const ThreadContext& t, const Instr& instr, Addr addr,
                      int64_t seq) {
  Failure f;
  f.type = type;
  f.tid = t.id;
  f.at = {t.prog, t.pc};
  f.addr = addr;
  f.seq = seq;
  f.message = instr.note.empty() ? Disassemble(instr) : instr.note;
  failure_ = std::move(f);
}

ThreadId KernelSim::Spawn(const ThreadContext& parent, ProgramId prog, Word arg, ThreadKind kind,
                          int64_t seq) {
  ThreadContext t;
  t.id = static_cast<ThreadId>(threads_.size());
  t.name = StrFormat("%s:%s#%d", ThreadKindName(kind),
                     image_->program(prog).name.c_str(), spawn_counter_++);
  t.prog = prog;
  t.kind = kind;
  t.regs[R0] = arg;
  t.initial_arg = arg;
  t.parent = parent.id;
  t.spawn_seq = seq;
  ThreadId id = t.id;
  threads_.push_back(std::move(t));
  spawns_.push_back({seq, parent.id, id, arg});
  return id;
}

ThreadId KernelSim::InjectIrq(ProgramId handler, Word arg) {
  ThreadContext t;
  t.id = static_cast<ThreadId>(threads_.size());
  t.name = StrFormat("hardirq:%s#%d", image_->program(handler).name.c_str(),
                     spawn_counter_++);
  t.prog = handler;
  t.kind = ThreadKind::kHardIrq;
  t.regs[R0] = arg;
  t.initial_arg = arg;
  ThreadId id = t.id;
  threads_.push_back(std::move(t));
  // No SpawnEdge: an interrupt is not ordered after any kernel instruction.
  return id;
}

void KernelSim::WakeBlockedOn(Addr lock_addr) {
  for (auto& t : threads_) {
    if (t.state == ThreadState::kBlocked && t.blocked_on == lock_addr) {
      t.state = ThreadState::kRunnable;
      t.blocked_on = 0;
    }
  }
}

void KernelSim::Park(ThreadId tid) {
  ThreadContext& t = Mut(tid);
  if (t.state == ThreadState::kRunnable || t.state == ThreadState::kBlocked) {
    t.state = ThreadState::kParked;
    // The trampoline busy-loop keeps the context responsive to IPIs (§4.4).
    AckIpi(tid);
  }
}

void KernelSim::Unpark(ThreadId tid) {
  ThreadContext& t = Mut(tid);
  if (t.state == ThreadState::kParked) {
    // A parked thread that was blocked on a lock retries the acquire.
    t.state = ThreadState::kRunnable;
  }
}

bool KernelSim::Step(ThreadId tid) {
  if (failure_.has_value()) {
    AITIA_LOG(kError) << "Step() after failure";
    std::abort();
  }
  ThreadContext& t = Mut(tid);
  if (!t.runnable()) {
    return false;
  }
  const Program& prog = image_->program(t.prog);
  if (t.pc < 0 || t.pc >= prog.size()) {
    AITIA_LOG(kError) << "pc out of range in " << prog.name;
    std::abort();
  }
  const Instr& instr = prog.At(t.pc);
  auto next = [&t] { t.pc++; };

  switch (instr.op) {
    case Op::kNop:
    case Op::kResched:
      Record(t, instr, false, false, 0, 0, 0);
      next();
      return true;

    case Op::kTlbFlush: {
      // IPI broadcast. Running peers acknowledge when they next retire an
      // instruction; parked (trampoline, §4.4) and lock-spinning peers
      // acknowledge immediately, because their loops keep interrupts live.
      if (ipi_broadcaster_ == t.id) {
        // Woken after the pending set drained.
        ipi_broadcaster_ = kNoThread;
        Record(t, instr, false, false, 0, 0, 0);
        next();
        return true;
      }
      std::set<ThreadId> pending;
      for (const auto& other : threads_) {
        if (other.id != t.id && other.state == ThreadState::kRunnable) {
          pending.insert(other.id);
        }
      }
      if (pending.empty()) {
        Record(t, instr, false, false, 0, 0, 0);
        next();
        return true;
      }
      ipi_broadcaster_ = t.id;
      ipi_pending_ = std::move(pending);
      t.state = ThreadState::kBlocked;
      t.blocked_on = kIpiWaitAddr;
      return false;
    }

    case Op::kMovImm:
      Record(t, instr, false, false, 0, 0, 0);
      t.regs[instr.rd] = instr.imm;
      next();
      return true;

    case Op::kMov:
      Record(t, instr, false, false, 0, 0, 0);
      t.regs[instr.rd] = t.regs[instr.rs];
      next();
      return true;

    case Op::kAddImm:
      Record(t, instr, false, false, 0, 0, 0);
      t.regs[instr.rd] = t.regs[instr.rs] + instr.imm;
      next();
      return true;

    case Op::kAdd:
      Record(t, instr, false, false, 0, 0, 0);
      t.regs[instr.rd] = t.regs[instr.rs] + t.regs[instr.rt];
      next();
      return true;

    case Op::kSub:
      Record(t, instr, false, false, 0, 0, 0);
      t.regs[instr.rd] = t.regs[instr.rs] - t.regs[instr.rt];
      next();
      return true;

    case Op::kLea:
      Record(t, instr, false, false, 0, 0, 0);
      t.regs[instr.rd] = instr.imm;
      next();
      return true;

    case Op::kLoad: {
      Addr ea = static_cast<Addr>(t.regs[instr.rs] + instr.imm);
      AccessOutcome out = memory_.Load(ea);
      int64_t seq = Record(t, instr, true, false, ea, 1, out.value);
      if (out.fault) {
        Fault(*out.fault, t, instr, ea, seq);
        return true;
      }
      t.regs[instr.rd] = out.value;
      next();
      return true;
    }

    case Op::kStore:
    case Op::kStoreImm: {
      Addr ea = static_cast<Addr>(t.regs[instr.rd] + instr.imm);
      Word value = instr.op == Op::kStore ? t.regs[instr.rs] : instr.imm2;
      AccessOutcome out = memory_.Store(ea, value);
      int64_t seq = Record(t, instr, true, true, ea, 1, value);
      if (out.fault) {
        Fault(*out.fault, t, instr, ea, seq);
        return true;
      }
      next();
      return true;
    }

    case Op::kBeqz:
    case Op::kBnez:
    case Op::kBeq:
    case Op::kBne: {
      Record(t, instr, false, false, 0, 0, 0);
      bool taken = false;
      switch (instr.op) {
        case Op::kBeqz: taken = t.regs[instr.rs] == 0; break;
        case Op::kBnez: taken = t.regs[instr.rs] != 0; break;
        case Op::kBeq: taken = t.regs[instr.rs] == t.regs[instr.rt]; break;
        case Op::kBne: taken = t.regs[instr.rs] != t.regs[instr.rt]; break;
        default: break;
      }
      if (taken) {
        t.pc = static_cast<Pc>(instr.imm);
      } else {
        next();
      }
      return true;
    }

    case Op::kJmp:
      Record(t, instr, false, false, 0, 0, 0);
      t.pc = static_cast<Pc>(instr.imm);
      return true;

    case Op::kCall:
      Record(t, instr, false, false, 0, 0, 0);
      t.call_stack.push_back(t.pc + 1);
      t.pc = static_cast<Pc>(instr.imm);
      return true;

    case Op::kRet:
      Record(t, instr, false, false, 0, 0, 0);
      if (t.call_stack.empty()) {
        t.state = ThreadState::kExited;
        return true;
      }
      t.pc = t.call_stack.back();
      t.call_stack.pop_back();
      return true;

    case Op::kExit:
      Record(t, instr, false, false, 0, 0, 0);
      t.state = ThreadState::kExited;
      return true;

    case Op::kAlloc: {
      int64_t seq = Record(t, instr, false, false, 0, 0, 0);
      DynInstr site{t.id, {t.prog, static_cast<Pc>(t.pc)}, 0};
      (void)seq;
      t.regs[instr.rd] =
          static_cast<Word>(memory_.Alloc(instr.imm, instr.imm2 != 0, site));
      next();
      return true;
    }

    case Op::kFree: {
      Addr base = static_cast<Addr>(t.regs[instr.rs]);
      const HeapObject* obj = memory_.FindObject(base);
      Addr len = obj != nullptr ? static_cast<Addr>(obj->cells) : 1;
      // kfree conflicts with any access to the object: record it as a write
      // covering the whole object.
      int64_t seq = Record(t, instr, true, true, base, len, 0);
      DynInstr site{t.id, {t.prog, static_cast<Pc>(t.pc)}, 0};
      if (auto fault = memory_.Free(base, site)) {
        Fault(*fault, t, instr, base, seq);
        return true;
      }
      next();
      return true;
    }

    case Op::kLock: {
      Addr ea = static_cast<Addr>(t.regs[instr.rs] + instr.imm);
      if (auto fault = memory_.Check(ea)) {
        int64_t seq = Record(t, instr, false, false, ea, 1, 0);
        Fault(*fault, t, instr, ea, seq);
        return true;
      }
      Word holder = memory_.Peek(ea);
      if (holder != 0) {
        // Contended (including self-deadlock): spin — the thread blocks and
        // the run loop's deadlock detector fires if nobody ever releases.
        // A spinning acquirer keeps interrupts enabled, so it acknowledges
        // outstanding IPIs (§4.4).
        t.state = ThreadState::kBlocked;
        t.blocked_on = ea;
        AckIpi(t.id);
        return false;
      }
      memory_.Poke(ea, t.id + 1);
      t.held_locks.push_back(ea);
      Record(t, instr, false, false, ea, 1, 0);
      next();
      return true;
    }

    case Op::kUnlock: {
      Addr ea = static_cast<Addr>(t.regs[instr.rs] + instr.imm);
      memory_.Poke(ea, 0);
      for (auto it = t.held_locks.begin(); it != t.held_locks.end(); ++it) {
        if (*it == ea) {
          t.held_locks.erase(it);
          break;
        }
      }
      Record(t, instr, false, false, ea, 1, 0);
      WakeBlockedOn(ea);
      next();
      return true;
    }

    case Op::kAssert: {
      int64_t seq = Record(t, instr, false, false, 0, 0, t.regs[instr.rs]);
      if (t.regs[instr.rs] == 0) {
        Fault(instr.imm2 != 0 ? FailureType::kWarning : FailureType::kAssertViolation, t,
              instr, 0, seq);
        return true;
      }
      next();
      return true;
    }

    case Op::kQueueWork:
    case Op::kCallRcu: {
      int64_t seq = Record(t, instr, false, false, 0, 0, 0);
      ThreadKind kind =
          instr.op == Op::kQueueWork ? ThreadKind::kKworker : ThreadKind::kRcuCallback;
      Spawn(t, static_cast<ProgramId>(instr.imm), t.regs[instr.rs], kind, seq);
      next();
      return true;
    }

    case Op::kListAdd:
    case Op::kListDel:
    case Op::kListContains:
    case Op::kListPop:
    case Op::kListLen: {
      Addr ea = static_cast<Addr>(t.regs[instr.rs] + instr.imm);
      bool write = IsWriteAccess(instr.op);
      if (auto fault = memory_.Check(ea)) {
        int64_t seq = Record(t, instr, true, write, ea, 1, 0);
        if (write && *fault == FailureType::kUseAfterFreeRead) {
          fault = FailureType::kUseAfterFreeWrite;
        }
        Fault(*fault, t, instr, ea, seq);
        return true;
      }
      auto& list = memory_.ListAt(ea);
      Word result = 0;
      switch (instr.op) {
        case Op::kListAdd:
          list.push_back(t.regs[instr.rt]);
          break;
        case Op::kListDel: {
          result = 0;
          for (auto it = list.begin(); it != list.end(); ++it) {
            if (*it == t.regs[instr.rt]) {
              list.erase(it);
              result = 1;
              break;
            }
          }
          break;
        }
        case Op::kListContains: {
          result = 0;
          for (Word v : list) {
            if (v == t.regs[instr.rt]) {
              result = 1;
              break;
            }
          }
          break;
        }
        case Op::kListPop:
          if (!list.empty()) {
            result = list.front();
            list.pop_front();
          }
          break;
        case Op::kListLen:
          result = static_cast<Word>(list.size());
          break;
        default:
          break;
      }
      // Mirror the length into the head cell so plain loads of the head see
      // list activity.
      memory_.Poke(ea, static_cast<Word>(list.size()));
      Record(t, instr, true, write, ea, 1, result);
      if (instr.op != Op::kListAdd) {
        t.regs[instr.rd] = result;
      }
      next();
      return true;
    }

    case Op::kRefGet:
    case Op::kRefPut: {
      Addr ea = static_cast<Addr>(t.regs[instr.rs] + instr.imm);
      if (auto fault = memory_.Check(ea)) {
        int64_t seq = Record(t, instr, true, true, ea, 1, 0);
        Fault(*fault == FailureType::kUseAfterFreeRead ? FailureType::kUseAfterFreeWrite : *fault,
              t, instr, ea, seq);
        return true;
      }
      Word v = memory_.Peek(ea);
      if (instr.op == Op::kRefGet) {
        int64_t seq = Record(t, instr, true, true, ea, 1, v + 1);
        if (v <= 0) {
          Fault(FailureType::kRefcountWarning, t, instr, ea, seq);
          return true;
        }
        memory_.Poke(ea, v + 1);
      } else {
        int64_t seq = Record(t, instr, true, true, ea, 1, v - 1);
        if (v <= 0) {
          Fault(FailureType::kRefcountWarning, t, instr, ea, seq);
          return true;
        }
        memory_.Poke(ea, v - 1);
        t.regs[instr.rd] = (v - 1 == 0) ? 1 : 0;
      }
      next();
      return true;
    }
  }
  AITIA_LOG(kError) << "unhandled op";
  std::abort();
}

RunResult KernelSim::Collect() {
  RunResult r;
  r.all_exited = AllExited();
  if (!failure_.has_value() && r.all_exited) {
    auto leaked = memory_.LeakedObjects();
    if (!leaked.empty()) {
      const HeapObject* obj = leaked.front();
      Failure f;
      f.type = FailureType::kMemoryLeak;
      f.tid = obj->alloc_site.tid;
      f.at = obj->alloc_site.at;
      f.addr = obj->base;
      f.message = StrFormat("%zu leak-checked object(s) still allocated", leaked.size());
      failure_ = std::move(f);
    }
  }
  r.failure = failure_;
  r.trace = trace_;
  r.spawns = spawns_;
  r.threads.reserve(threads_.size());
  for (const auto& t : threads_) {
    r.threads.push_back({t.name, t.prog, t.kind, t.parent, t.initial_arg});
  }
  r.steps = static_cast<int64_t>(trace_.size());
  return r;
}

}  // namespace aitia
