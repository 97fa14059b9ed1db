#include "src/gen/templates.h"

#include <memory>

#include "src/gen/generator.h"
#include "src/sim/builder.h"
#include "src/util/strings.h"

namespace aitia {
namespace gen {
namespace {

// Register conventions, shared by every template so salt and window filler
// can never clobber mechanism state:
//   r1..r7   template mechanism
//   r8, r9   salt addresses / counter values (always reloaded per site)
//   r10      window-filler scratch
//   r12      dead-read sink: written by salt dead reads, never read, so
//            those races cannot steer anything.

// Salt placement rule: salt sites are emitted at the TAIL of each mechanism
// thread (after the planted mechanism, on the path every clean run takes).
// Causality flips enforce the flipped order by replaying the failing run's
// total order with the pair reordered, dragging the second thread's program
// prefix ahead of the first access — a salt race *before* the mechanism
// would proxy-order the mechanism itself and genuinely prevent the failure
// (a correct but unplanted root cause). Tail placement keeps every salt
// flip's outcome independent of the mechanism interleaving, which is what
// makes the races provably benign.

// How one salt global is raced by every thread that touches it.
enum class SaltKind {
  kCounter,      // load/add/store — the flipped count is never checked
  kSilentStore,  // same-value store_imm from all sides — order-insensitive
  kDeadRead,     // one writer, dead reads elsewhere — the value is never used
};

struct SaltSite {
  Addr addr = 0;
  std::string name;
  SaltKind kind = SaltKind::kCounter;
  Word value = 0;  // the silent-store value / the writer's store value
};

// Per-scenario build context.
struct Ctx {
  GeneratedScenario* out;
  KernelImage* image;
  Rng* rng;
  const GenKnobs* knobs;
  std::vector<SaltSite> salt;
};

const char* const kSubsystems[] = {"Packet socket", "Serial TTY", "KVM",
                                   "Block layer",   "RxRPC",      "Bluetooth"};

void MakeSalt(Ctx& c, int sites) {
  for (int i = 0; i < sites; ++i) {
    SaltSite site;
    site.name = StrFormat("stats%d", i);
    site.addr = c.image->AddGlobal(site.name, static_cast<Word>(c.rng->NextBelow(3)));
    switch (c.rng->NextBelow(3)) {
      case 0: site.kind = SaltKind::kCounter; break;
      case 1: site.kind = SaltKind::kSilentStore; break;
      default: site.kind = SaltKind::kDeadRead; break;
    }
    site.value = static_cast<Word>(5 + c.rng->NextBelow(3));
    c.salt.push_back(site);
    c.out->benign_globals.push_back(site.name);
  }
}

// Emits one salt access. `writer` selects the writing side of a dead-read
// site (exactly one thread per scenario passes true).
void EmitSalt(ProgramBuilder& b, const SaltSite& site, bool writer) {
  switch (site.kind) {
    case SaltKind::kCounter:
      b.Lea(R8, site.addr)
          .Load(R9, R8)
          .Note(StrFormat("%s++ (benign counter)", site.name.c_str()))
          .AddImm(R9, R9, 1)
          .Store(R8, R9);
      break;
    case SaltKind::kSilentStore:
      b.Lea(R8, site.addr)
          .StoreImm(R8, site.value)
          .Note(StrFormat("%s = %lld (benign, same value everywhere)",
                          site.name.c_str(), static_cast<long long>(site.value)));
      break;
    case SaltKind::kDeadRead:
      if (writer) {
        b.Lea(R8, site.addr)
            .StoreImm(R8, site.value)
            .Note(StrFormat("%s = %lld (benign publish)", site.name.c_str(),
                            static_cast<long long>(site.value)));
      } else {
        b.Lea(R8, site.addr)
            .Load(R12, R8)
            .Note(StrFormat("%s sampled, never used (benign dead read)",
                            site.name.c_str()));
      }
      break;
  }
}

// All of a thread's salt sites. `thread_index` 0 is the dead-read writer.
void EmitAllSalt(Ctx& c, ProgramBuilder& b, int thread_index) {
  for (const SaltSite& site : c.salt) {
    EmitSalt(b, site, /*writer=*/thread_index == 0);
  }
}

// Window filler: widens the vulnerability window without touching memory
// (memory-free so no knob setting can add a faulting or racing access).
void EmitWindow(Ctx& c, ProgramBuilder& b) {
  for (int i = 0; i < c.knobs->window; ++i) {
    if (c.rng->Chance(1, 2)) {
      b.Nop();
    } else {
      b.AddImm(R10, R10, 1);
    }
  }
}

// Benign bystander thread: scheduling noise on a private counter. The
// global is private on purpose — a cross-context race against a mechanism
// thread could be flipped into an ordering proxy for the mechanism (see the
// salt placement rule above), so the bystander races with nobody.
void AddBystander(Ctx& c) {
  SaltSite site;
  site.name = "bystander_stats";
  site.addr = c.image->AddGlobal(site.name, 0);
  site.kind = SaltKind::kCounter;
  c.out->benign_globals.push_back(site.name);
  ProgramBuilder b("bystander");
  EmitSalt(b, site, false);
  b.Nop().Exit();
  ProgramId prog = c.image->AddProgram(b.Build());
  BugScenario& s = c.out->scenario;
  s.slice.push_back({"bystander", prog, 0, ThreadKind::kSyscall});
  if (!s.slice_resources.empty()) {
    s.slice_resources.push_back("");
  }
}

// Benign hardware-IRQ line: one counter bump on a private global (an IRQ
// handler may fire anywhere, so it must be unconditionally safe, and it
// must not race with mechanism threads — see the salt placement rule).
void AddIrqLine(Ctx& c) {
  SaltSite site;
  site.name = "irq_stats";
  site.addr = c.image->AddGlobal(site.name, 0);
  site.kind = SaltKind::kCounter;
  c.out->benign_globals.push_back(site.name);
  ProgramBuilder b("irq_handler");
  EmitSalt(b, site, false);
  b.Exit();
  c.out->scenario.irq_lines.push_back({c.image->AddProgram(b.Build()), 0});
}

void FinishCommon(Ctx& c, GenTemplate tmpl) {
  if (c.knobs->irq) {
    AddIrqLine(c);
  }
  // kBenign sizes its own worker pool from extra_threads.
  if (c.knobs->extra_threads > 0 && tmpl != GenTemplate::kBenign) {
    AddBystander(c);
  }
}

// --- order: two-variable order violation -> NULL deref (fig-1 shape) --------
//
//   publisher                       invalidator
//   A1  ptr_valid = 1               B1  if (!ptr_valid) return
//   A2  local = *ptr                B2  ptr = NULL
//
// Failure needs A1 => B1 and B2 => A2; both sequential orders are clean.
void BuildOrder(Ctx& c) {
  BugScenario& s = c.out->scenario;
  s.bug_kind = "NULL pointer dereference";
  KernelImage& image = *c.image;
  const Word pointee_init = static_cast<Word>(1 + c.rng->NextBelow(97));
  const Addr pointee = image.AddGlobal("pointee", pointee_init);
  const Addr ptr = image.AddGlobal("ptr", static_cast<Word>(pointee));
  const Addr ptr_valid = image.AddGlobal("ptr_valid", 0);
  {
    ProgramBuilder b("publish_path");
    b.Lea(R1, ptr_valid)
        .StoreImm(R1, 1)
        .Note("A1: ptr_valid = 1")
        .Lea(R2, ptr);
    EmitWindow(c, b);
    b.Load(R3, R2)
        .Note("A2: local = *ptr (read ptr)")
        .Load(R3, R3)
        .Note("A2': local = *ptr (deref)");
    EmitAllSalt(c, b, 0);
    b.Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("invalidate_path");
    b.Lea(R1, ptr_valid)
        .Load(R2, R1)
        .Note("B1: if (!ptr_valid) return")
        .Beqz(R2, "out")
        .Lea(R3, ptr)
        .StoreImm(R3, 0)
        .Note("B2: ptr = NULL")
        .Label("out");
    EmitAllSalt(c, b, 1);
    b.Exit();
    image.AddProgram(b.Build());
  }
  s.slice = {
      {"publish()", image.ProgramByName("publish_path"), 0, ThreadKind::kSyscall},
      {"invalidate()", image.ProgramByName("invalidate_path"), 0, ThreadKind::kSyscall},
  };
  s.truth.failure_type = FailureType::kNullDeref;
  s.truth.multi_variable = true;
  s.truth.racing_globals = {"ptr", "ptr_valid"};
}

// --- atomicity: read-check-use violation -> BUG_ON ---------------------------
//
//   opener                          resetter
//   A1  dev->state = OPEN           B1  if (dev->state != OPEN) return
//   A2  BUG_ON(dev->state != OPEN)  B2  dev->state = CLOSED
//
// A's {A1 .. A2} region is assumed atomic; B2 sneaking between them fires
// the assert. Both sequential orders are clean.
void BuildAtomicity(Ctx& c) {
  BugScenario& s = c.out->scenario;
  s.bug_kind = "Assertion violation";
  KernelImage& image = *c.image;
  const Addr state = image.AddGlobal("dev_state", 0);
  {
    ProgramBuilder b("open_path");
    b.Lea(R1, state).StoreImm(R1, 1).Note("A1: dev->state = OPEN");
    EmitWindow(c, b);
    b.Load(R2, R1)
        .Note("A2: BUG_ON(dev->state != OPEN) read")
        .BugOn(R2)
        .Note("A2': BUG_ON fires");
    EmitAllSalt(c, b, 0);
    b.Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("reset_path");
    b.Lea(R1, state)
        .Load(R2, R1)
        .Note("B1: if (dev->state != OPEN) return")
        .Beqz(R2, "out")
        .StoreImm(R1, 0)
        .Note("B2: dev->state = CLOSED")
        .Label("out");
    EmitAllSalt(c, b, 1);
    b.Exit();
    image.AddProgram(b.Build());
  }
  s.slice = {
      {"open()", image.ProgramByName("open_path"), 0, ThreadKind::kSyscall},
      {"reset()", image.ProgramByName("reset_path"), 0, ThreadKind::kSyscall},
  };
  s.truth.failure_type = FailureType::kAssertViolation;
  s.truth.single_variable_pattern = true;
  s.truth.racing_globals = {"dev_state"};
}

// --- rcu: grace-period use-after-free read -----------------------------------
//
//   reader                          updater             (rcu callback)
//   R1  p = rcu_dereference(ptr)    U1  old = ptr
//   R2  use(*p)                     U2  ptr = NULL
//                                   U3  call_rcu(free_cb, old)   C1 kfree(old)
//
// The modeled bug: the updater's callback runs before the reader's critical
// section ends (a too-short grace period), so R2 reads freed memory.
void BuildRcu(Ctx& c) {
  BugScenario& s = c.out->scenario;
  s.bug_kind = "Use-after-free access";
  KernelImage& image = *c.image;
  const Addr ptr = image.AddGlobal("ptr", 0);
  {
    ProgramBuilder b("obj_free_cb");
    b.Free(R0).Note("C1: kfree(old)").Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("setup_publish");
    b.Alloc(R1, 1)
        .Note("S1: obj = kmalloc()")
        .StoreImm(R1, static_cast<Word>(1 + c.rng->NextBelow(9)))
        .Lea(R2, ptr)
        .Store(R2, R1)
        .Note("S2: rcu_assign_pointer(ptr, obj)")
        .Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("rcu_reader");
    b.Lea(R1, ptr)
        .Load(R2, R1)
        .Note("R1: p = rcu_dereference(ptr)")
        .Beqz(R2, "out");
    EmitWindow(c, b);
    b.Load(R3, R2).Note("R2: use(*p)").Label("out");
    EmitAllSalt(c, b, 0);
    b.Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("rcu_updater");
    b.Lea(R1, ptr)
        .Load(R2, R1)
        .Note("U1: old = ptr")
        .Beqz(R2, "out")
        .StoreImm(R1, 0)
        .Note("U2: rcu_assign_pointer(ptr, NULL)")
        .CallRcu(image.ProgramByName("obj_free_cb"), R2)
        .Note("U3: call_rcu(&old->rcu, free_cb)")
        .Label("out");
    EmitAllSalt(c, b, 1);
    b.Exit();
    image.AddProgram(b.Build());
  }
  s.setup = {{"setup()", image.ProgramByName("setup_publish"), 0, ThreadKind::kSyscall}};
  s.slice = {
      {"read()", image.ProgramByName("rcu_reader"), 0, ThreadKind::kSyscall},
      {"update()", image.ProgramByName("rcu_updater"), 0, ThreadKind::kSyscall},
  };
  // Resource tags tie the slice back to its setup syscall so history
  // slicing (fuzz -> DiagnoseHistory) pulls the publish prologue in.
  s.slice_resources = {"rcu_obj", "rcu_obj"};
  s.setup_resources = {"rcu_obj"};
  s.truth.failure_type = FailureType::kUseAfterFreeRead;
  s.truth.racing_globals = {"ptr"};
}

// --- workqueue: flush-vs-free use-after-free write ---------------------------
//
//   submitter            kworker                  teardown
//   Q1 queue_work()      W1  buf = dev->buf       T1  buf = dev->buf
//                        W2  buf->byte = 1        T2  dev->buf = NULL
//                                                 T3  kfree(buf)
//
// The modeled bug: teardown neither cancels nor flushes the queued work, so
// the kworker's deferred write lands in freed memory.
void BuildWorkqueue(Ctx& c) {
  BugScenario& s = c.out->scenario;
  s.bug_kind = "Use-after-free access (kworker)";
  KernelImage& image = *c.image;
  const Addr bufp = image.AddGlobal("bufp", 0);
  {
    ProgramBuilder b("setup_publish");
    b.Alloc(R1, 1)
        .Note("S1: buf = kmalloc()")
        .Lea(R2, bufp)
        .Store(R2, R1)
        .Note("S2: dev->buf = buf")
        .Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("wq_worker");
    b.Lea(R1, bufp).Load(R2, R1).Note("W1: buf = dev->buf").Beqz(R2, "out");
    EmitWindow(c, b);
    b.StoreImm(R2, 1).Note("W2: buf->byte = 1 (deferred use)").Label("out").Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("submit_path");
    b.QueueWork(image.ProgramByName("wq_worker"), R0)
        .Note("Q1: queue_work(&dev->work)");
    EmitAllSalt(c, b, 0);
    b.Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("teardown_path");
    b.Lea(R1, bufp)
        .Load(R2, R1)
        .Note("T1: buf = dev->buf")
        .Beqz(R2, "out")
        .StoreImm(R1, 0)
        .Note("T2: dev->buf = NULL")
        .Free(R2)
        .Note("T3: kfree(buf) without flush_work()")
        .Label("out");
    EmitAllSalt(c, b, 1);
    b.Exit();
    image.AddProgram(b.Build());
  }
  s.setup = {{"setup()", image.ProgramByName("setup_publish"), 0, ThreadKind::kSyscall}};
  s.slice = {
      {"submit()", image.ProgramByName("submit_path"), 0, ThreadKind::kSyscall},
      {"teardown()", image.ProgramByName("teardown_path"), 0, ThreadKind::kSyscall},
  };
  s.slice_resources = {"wq_dev", "wq_dev"};
  s.setup_resources = {"wq_dev"};
  s.truth.failure_type = FailureType::kUseAfterFreeWrite;
  s.truth.racing_globals = {"bufp"};
}

// --- refcount: release race -> refcount saturation warning -------------------
//
//   getter                               releaser
//   G1  if (!refcount_read(&o->ref))     P1  if (refcount_dec_and_test(&o->ref))
//         return                         P2      kfree(o)
//   G2  refcount_inc(&o->ref)
//
// The modeled bug: the getter open-codes the read+inc that should have been
// refcount_inc_not_zero(); the releaser dropping the last reference between
// G1 and G2 makes G2 an inc-from-zero.
void BuildRefcount(Ctx& c) {
  BugScenario& s = c.out->scenario;
  s.bug_kind = "Refcount warning";
  KernelImage& image = *c.image;
  const Addr objp = image.AddGlobal("objp", 0);
  {
    ProgramBuilder b("setup_publish");
    b.Alloc(R1, 2)
        .Note("S1: obj = kmalloc()")
        .StoreImm(R1, 1)
        .Note("S2: refcount_set(&obj->ref, 1)")
        .Lea(R2, objp)
        .Store(R2, R1)
        .Note("S3: objp = obj")
        .Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("get_path");
    b.Lea(R1, objp)
        .Load(R2, R1)
        .Load(R3, R2)
        .Note("G1: if (!refcount_read(&obj->ref)) return")
        .Beqz(R3, "out");
    EmitWindow(c, b);
    b.RefGet(R2)
        .Note("G2: refcount_inc(&obj->ref)")
        .RefPut(R4, R2)
        .Note("G3: refcount_dec(&obj->ref)")
        .Label("out");
    EmitAllSalt(c, b, 0);
    b.Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("put_path");
    b.Lea(R1, objp)
        .Load(R2, R1)
        .RefPut(R3, R2)
        .Note("P1: refcount_dec_and_test(&obj->ref)")
        .Beqz(R3, "out")
        .Free(R2)
        .Note("P2: kfree(obj)")
        .Label("out");
    EmitAllSalt(c, b, 1);
    b.Exit();
    image.AddProgram(b.Build());
  }
  s.setup = {{"setup()", image.ProgramByName("setup_publish"), 0, ThreadKind::kSyscall}};
  s.slice = {
      {"get()", image.ProgramByName("get_path"), 0, ThreadKind::kSyscall},
      {"put()", image.ProgramByName("put_path"), 0, ThreadKind::kSyscall},
  };
  s.slice_resources = {"ref_obj", "ref_obj"};
  s.setup_resources = {"ref_obj"};
  s.truth.failure_type = FailureType::kRefcountWarning;
  s.truth.single_variable_pattern = true;
  s.truth.racing_globals = {"objp"};
}

// --- abba: flag-guarded lock-ordering deadlock -------------------------------
//
//   register_path                    teardown_path
//   A1  mutex_lock(&L0)              B1  if (!registered) return
//   A2  registered = 1               B2  mutex_lock(&L[d-1]) .. mutex_lock(&L0)
//   A3  mutex_lock(&L1) .. &L[d-1]
//
// The planted race is the unlocked `registered` handshake: teardown only
// enters its (reversed) lock ladder after seeing the flag, so flipping
// A2 => B1 prevents the deadlock — exactly how real ABBA bugs are gated by
// racy state checks. A bare ABBA with no gate is over-determined (every
// order entering both ladders deadlocks) and yields an empty chain.
void BuildAbba(Ctx& c) {
  BugScenario& s = c.out->scenario;
  s.bug_kind = "Deadlock (ABBA lock ordering)";
  KernelImage& image = *c.image;
  const int depth = c.knobs->lock_depth;
  const Addr flag = image.AddGlobal("registered", 0);
  std::vector<Addr> locks;
  std::vector<Addr> data;
  for (int i = 0; i < depth; ++i) {
    locks.push_back(image.AddGlobal(StrFormat("lock%d", i), 0));
    data.push_back(image.AddGlobal(StrFormat("guarded%d", i), 0));
  }
  {
    ProgramBuilder b("register_path");
    b.Lea(R1, locks[0])
        .Lock(R1)
        .Note("A1: mutex_lock(&L0)")
        .Lea(R2, data[0])
        .StoreImm(R2, 1)
        .Note("A1': L0 state = live")
        .Lea(R3, flag)
        .StoreImm(R3, 1)
        .Note("A2: registered = 1");
    EmitWindow(c, b);
    for (int i = 1; i < depth; ++i) {
      b.Lea(R4, locks[i])
          .Lock(R4)
          .Note(StrFormat("A%d: mutex_lock(&L%d)", 2 + i, i))
          .Lea(R5, data[i])
          .StoreImm(R5, 1)
          .Note(StrFormat("A%d': L%d state = live", 2 + i, i));
    }
    for (int i = depth - 1; i >= 1; --i) {
      b.Lea(R4, locks[i]).Unlock(R4);
    }
    b.Unlock(R1);
    EmitAllSalt(c, b, 0);
    b.Exit();
    image.AddProgram(b.Build());
  }
  {
    ProgramBuilder b("teardown_path");
    b.Lea(R1, flag)
        .Load(R2, R1)
        .Note("B1: if (!registered) return")
        .Beqz(R2, "out");
    for (int i = depth - 1; i >= 0; --i) {
      b.Lea(R3, locks[i])
          .Lock(R3)
          .Note(StrFormat("B%d: mutex_lock(&L%d) [reversed]", 2 + (depth - 1 - i), i))
          .Lea(R4, data[i])
          .StoreImm(R4, 2)
          .Note(StrFormat("B%d': L%d state = dead", 2 + (depth - 1 - i), i));
    }
    for (int i = 0; i < depth; ++i) {
      b.Lea(R3, locks[i]).Unlock(R3);
    }
    b.Label("out");
    EmitAllSalt(c, b, 1);
    b.Exit();
    image.AddProgram(b.Build());
  }
  s.slice = {
      {"register()", image.ProgramByName("register_path"), 0, ThreadKind::kSyscall},
      {"unregister()", image.ProgramByName("teardown_path"), 0, ThreadKind::kSyscall},
  };
  s.truth.failure_type = FailureType::kDeadlock;
  s.truth.multi_variable = true;
  // The flag handshake is the planted root cause; the lock-guarded state is
  // legitimately part of the racing footprint (phantom flips may touch it).
  s.truth.racing_globals.push_back("registered");
  for (int i = 0; i < depth; ++i) {
    s.truth.racing_globals.push_back(StrFormat("guarded%d", i));
  }
}

// --- benign: salted benign races only ----------------------------------------
//
// No assert, no deref, no free, and (with lock_depth >= 2) only same-order
// lock ladders: no interleaving of these threads can fail, so any LIFS
// reproduction on this template is a fabricated failure by definition.
void BuildBenign(Ctx& c) {
  BugScenario& s = c.out->scenario;
  s.bug_kind = "No failure (benign races only)";
  KernelImage& image = *c.image;
  const bool ladder = c.knobs->lock_depth >= 2;
  std::vector<Addr> locks;
  Addr guarded = 0;
  if (ladder) {
    for (int i = 0; i < c.knobs->lock_depth; ++i) {
      locks.push_back(image.AddGlobal(StrFormat("lock%d", i), 0));
    }
    guarded = image.AddGlobal("guarded_counter", 0);
    c.out->benign_globals.push_back("guarded_counter");
  }
  const int threads = 2 + c.knobs->extra_threads;
  for (int t = 0; t < threads; ++t) {
    ProgramBuilder b(StrFormat("worker%d", t));
    EmitAllSalt(c, b, t);
    if (ladder) {
      // Every thread takes the ladder in the same order: deadlock-free.
      for (Addr lock : locks) {
        b.Lea(R1, lock).Lock(R1).Note("mutex_lock (same order everywhere)");
      }
      b.Lea(R2, guarded)
          .Load(R3, R2)
          .Note("guarded_counter++ (lock-protected)")
          .AddImm(R3, R3, 1)
          .Store(R2, R3);
      for (auto it = locks.rbegin(); it != locks.rend(); ++it) {
        b.Lea(R1, *it).Unlock(R1);
      }
    }
    EmitWindow(c, b);
    if (c.salt.empty() && !ladder) {
      b.Nop();
    }
    b.Exit();
    ProgramId prog = image.AddProgram(b.Build());
    s.slice.push_back({StrFormat("worker%d()", t), prog, 0, ThreadKind::kSyscall});
  }
  s.truth.failure_type = FailureType::kNone;
}

}  // namespace

const char* GenTemplateName(GenTemplate t) {
  switch (t) {
    case GenTemplate::kOrder: return "order";
    case GenTemplate::kAtomicity: return "atomicity";
    case GenTemplate::kRcu: return "rcu";
    case GenTemplate::kWorkqueue: return "workqueue";
    case GenTemplate::kRefcount: return "refcount";
    case GenTemplate::kAbba: return "abba";
    case GenTemplate::kBenign: return "benign";
  }
  return "?";
}

bool ParseGenTemplate(std::string_view token, GenTemplate* out) {
  for (GenTemplate t : AllGenTemplates()) {
    if (token == GenTemplateName(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

const std::vector<GenTemplate>& AllGenTemplates() {
  static const std::vector<GenTemplate> kAll = {
      GenTemplate::kOrder,     GenTemplate::kAtomicity, GenTemplate::kRcu,
      GenTemplate::kWorkqueue, GenTemplate::kRefcount,  GenTemplate::kAbba,
      GenTemplate::kBenign,
  };
  return kAll;
}

GeneratedScenario GenerateScenario(const GenOptions& options) {
  GeneratedScenario out;
  Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(options.tmpl));
  out.scenario.image = std::make_shared<KernelImage>();
  out.scenario.id = StrFormat(
      "gen-%s-s%lluw%dx%dt%dd%d%s", GenTemplateName(options.tmpl),
      static_cast<unsigned long long>(options.seed), options.knobs.window,
      options.knobs.salt, options.knobs.extra_threads, options.knobs.lock_depth,
      options.knobs.irq ? "i" : "");
  Ctx c{&out, out.scenario.image.get(), &rng, &options.knobs, {}};
  out.scenario.subsystem =
      StrFormat("%s (generated)", kSubsystems[rng.PickIndex(std::size(kSubsystems))]);
  // kBenign scenarios always carry at least one salted race so LIFS has real
  // cross-thread knowledge to (not) chase.
  const int sites = options.tmpl == GenTemplate::kBenign
                        ? std::max(1, options.knobs.salt)
                        : options.knobs.salt;
  MakeSalt(c, sites);
  switch (options.tmpl) {
    case GenTemplate::kOrder: BuildOrder(c); break;
    case GenTemplate::kAtomicity: BuildAtomicity(c); break;
    case GenTemplate::kRcu: BuildRcu(c); break;
    case GenTemplate::kWorkqueue: BuildWorkqueue(c); break;
    case GenTemplate::kRefcount: BuildRefcount(c); break;
    case GenTemplate::kAbba: BuildAbba(c); break;
    case GenTemplate::kBenign: BuildBenign(c); break;
  }
  out.expect_failure = options.tmpl != GenTemplate::kBenign;
  FinishCommon(c, options.tmpl);
  return out;
}

}  // namespace gen
}  // namespace aitia
