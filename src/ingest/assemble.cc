#include "src/ingest/assemble.h"

#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/sim/builder.h"
#include "src/util/strings.h"

namespace aitia {
namespace {

Status DocError(const TraceDoc& doc, SourcePos pos, const std::string& message) {
  return Status::InvalidArgument(StrFormat("%s:%d:%d: %s", doc.filename.c_str(), pos.line,
                                           pos.col, message.c_str()));
}

// Re-checks label discipline so AssembleScenario never trips ProgramBuilder's
// aborts, even on a hand-constructed TraceDoc that skipped the parser.
Status ValidateLabels(const TraceDoc& doc, const AitProgram& prog) {
  std::set<std::string> defined;
  for (const AitInstr& item : prog.items) {
    if (item.info->is_label && !defined.insert(item.sym).second) {
      return DocError(doc, item.sym_pos,
                      StrFormat("duplicate label '%s' in program '%s'", item.sym.c_str(),
                                prog.name.c_str()));
    }
  }
  for (const AitInstr& item : prog.items) {
    if (item.info->is_label) {
      continue;
    }
    if (std::string_view(item.info->signature).find('L') != std::string_view::npos &&
        defined.count(item.sym) == 0) {
      return DocError(doc, item.sym_pos,
                      StrFormat("undefined label '%s' in program '%s'", item.sym.c_str(),
                                prog.name.c_str()));
    }
  }
  return OkStatus();
}

}  // namespace

StatusOr<BugScenario> AssembleScenario(const TraceDoc& doc) {
  constexpr size_t kGlobalCapacity = kGlobalEnd - kGlobalBase;
  if (doc.globals.size() > kGlobalCapacity) {
    return DocError(doc, doc.globals[kGlobalCapacity].pos,
                    StrFormat("too many globals: the global region holds %zu", kGlobalCapacity));
  }
  // Addresses and ProgramIds are assigned in declaration order — the same
  // rule KernelImage uses — so every name can be resolved up front and
  // forward references (a syscall queueing a later-defined worker) work.
  std::map<std::string, Addr> global_addr;
  for (size_t i = 0; i < doc.globals.size(); ++i) {
    global_addr[doc.globals[i].name] = kGlobalBase + static_cast<Addr>(i);
  }
  std::map<std::string, ProgramId> program_id;
  for (size_t i = 0; i < doc.programs.size(); ++i) {
    program_id[doc.programs[i].name] = static_cast<ProgramId>(i);
  }

  BugScenario scenario;
  scenario.id = doc.scenario_id;
  scenario.subsystem = doc.subsystem;
  scenario.bug_kind = doc.bug_kind;
  scenario.image = std::make_shared<KernelImage>();
  KernelImage& image = *scenario.image;

  for (const AitGlobal& g : doc.globals) {
    Word init = g.init;
    if (!g.init_ref.empty()) {
      auto it = global_addr.find(g.init_ref);
      if (it == global_addr.end()) {
        return DocError(doc, g.init_pos,
                        StrFormat("unknown global '%s' in '&' initializer", g.init_ref.c_str()));
      }
      init = static_cast<Word>(it->second);
    }
    image.AddGlobal(g.name, init);
  }

  for (const AitProgram& prog : doc.programs) {
    Status s = ValidateLabels(doc, prog);
    if (!s.ok()) {
      return s;
    }
    ProgramBuilder b(prog.name);
    for (const AitInstr& it : prog.items) {
      if (it.info->is_label) {
        if (!it.note.empty()) {
          return DocError(doc, it.pos, "a 'label' line cannot carry a note");
        }
        b.Label(it.sym);
        continue;
      }
      const Reg rd = static_cast<Reg>(it.rd);
      const Reg rs = static_cast<Reg>(it.rs);
      const Reg rt = static_cast<Reg>(it.rt);
      switch (it.info->op) {
        case Op::kNop: b.Nop(); break;
        case Op::kResched: b.Resched(); break;
        case Op::kTlbFlush: b.TlbFlush(); break;
        case Op::kMovImm: b.MovImm(rd, it.imm); break;
        case Op::kMov: b.Mov(rd, rs); break;
        case Op::kAddImm: b.AddImm(rd, rs, it.imm); break;
        case Op::kAdd: b.Add(rd, rs, rt); break;
        case Op::kSub: b.Sub(rd, rs, rt); break;
        case Op::kLea: {
          Addr addr = static_cast<Addr>(it.imm);
          if (!it.sym_is_number) {
            auto found = global_addr.find(it.sym);
            if (found == global_addr.end()) {
              return DocError(doc, it.sym_pos,
                              StrFormat("unknown global '%s'", it.sym.c_str()));
            }
            addr = found->second;
          }
          b.Lea(rd, addr);
          break;
        }
        case Op::kLoad: b.Load(rd, rs, it.off); break;
        case Op::kStore: b.Store(rd, rs, it.off); break;
        case Op::kStoreImm: b.StoreImm(rd, it.imm2, it.off); break;
        case Op::kBeqz: b.Beqz(rs, it.sym); break;
        case Op::kBnez: b.Bnez(rs, it.sym); break;
        case Op::kBeq: b.Beq(rs, rt, it.sym); break;
        case Op::kBne: b.Bne(rs, rt, it.sym); break;
        case Op::kJmp: b.Jmp(it.sym); break;
        case Op::kCall: b.Call(it.sym); break;
        case Op::kRet: b.Ret(); break;
        case Op::kExit: b.Exit(); break;
        case Op::kAlloc: b.Alloc(rd, it.imm, it.leak); break;
        case Op::kFree: b.Free(rs); break;
        case Op::kLock: b.Lock(rs, it.off); break;
        case Op::kUnlock: b.Unlock(rs, it.off); break;
        case Op::kAssert:
          if (it.info->name[0] == 'w') {
            b.WarnOn(rs);
          } else {
            b.BugOn(rs);
          }
          break;
        case Op::kQueueWork:
        case Op::kCallRcu: {
          auto found = program_id.find(it.sym);
          if (found == program_id.end()) {
            return DocError(doc, it.sym_pos,
                            StrFormat("unknown program '%s'", it.sym.c_str()));
          }
          if (it.info->op == Op::kQueueWork) {
            b.QueueWork(found->second, rs);
          } else {
            b.CallRcu(found->second, rs);
          }
          break;
        }
        case Op::kListAdd: b.ListAdd(rs, rt, it.off); break;
        case Op::kListDel: b.ListDel(rd, rs, rt, it.off); break;
        case Op::kListContains: b.ListContains(rd, rs, rt, it.off); break;
        case Op::kListPop: b.ListPop(rd, rs, it.off); break;
        case Op::kListLen: b.ListLen(rd, rs, it.off); break;
        case Op::kRefGet: b.RefGet(rs, it.off); break;
        case Op::kRefPut: b.RefPut(rd, rs, it.off); break;
      }
      if (!it.note.empty()) {
        b.Note(it.note);
      }
    }
    image.AddProgram(b.Build());
  }

  // Thread sections. A section's resource vector is emitted only when some
  // thread in it carries a tag (matching the corpus convention of leaving
  // the parallel vector empty when unused).
  auto section_has_resource = [&](AitSection section) {
    for (const AitThread& t : doc.threads) {
      if (t.section == section && t.has_resource) {
        return true;
      }
    }
    return false;
  };
  const bool slice_tagged = section_has_resource(AitSection::kSlice);
  const bool setup_tagged = section_has_resource(AitSection::kSetup);
  for (const AitThread& t : doc.threads) {
    auto found = program_id.find(t.program);
    if (found == program_id.end()) {
      return DocError(doc, t.program_pos,
                      StrFormat("unknown program '%s'", t.program.c_str()));
    }
    ThreadSpec spec{t.name, found->second, t.arg, t.kind};
    switch (t.section) {
      case AitSection::kSlice:
        scenario.slice.push_back(std::move(spec));
        if (slice_tagged) {
          scenario.slice_resources.push_back(t.resource);
        }
        break;
      case AitSection::kSetup:
        scenario.setup.push_back(std::move(spec));
        if (setup_tagged) {
          scenario.setup_resources.push_back(t.resource);
        }
        break;
      case AitSection::kNoise:
        scenario.noise.push_back(std::move(spec));
        break;
    }
  }
  if (scenario.slice.empty()) {
    return Status::InvalidArgument(doc.filename +
                                   ": scenario declares no 'slice' threads to diagnose");
  }

  for (const AitIrq& irq : doc.irqs) {
    auto found = program_id.find(irq.handler);
    if (found == program_id.end()) {
      return DocError(doc, irq.handler_pos,
                      StrFormat("unknown program '%s'", irq.handler.c_str()));
    }
    scenario.irq_lines.push_back({found->second, irq.arg});
  }

  scenario.truth = doc.truth;
  for (size_t i = 0; i < doc.truth.racing_globals.size(); ++i) {
    if (global_addr.count(doc.truth.racing_globals[i]) == 0) {
      const SourcePos pos =
          i < doc.racing_global_pos.size() ? doc.racing_global_pos[i] : SourcePos{};
      return DocError(doc, pos,
                      StrFormat("unknown global '%s' in truth racing_globals",
                                doc.truth.racing_globals[i].c_str()));
    }
  }
  return scenario;
}

}  // namespace aitia
