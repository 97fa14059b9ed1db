#include "src/sim/builder.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/util/log.h"

namespace aitia {

ProgramBuilder::ProgramBuilder(std::string name) : name_(std::move(name)) {}

Instr& ProgramBuilder::Emit(Instr instr) {
  code_.push_back(std::move(instr));
  return code_.back();
}

ProgramBuilder& ProgramBuilder::Note(const std::string& note) {
  if (code_.empty()) {
    AITIA_LOG(kError) << "Note() before any instruction in " << name_;
    std::abort();
  }
  code_.back().note = note;
  return *this;
}

ProgramBuilder& ProgramBuilder::Label(const std::string& name) {
  if (!labels_.emplace(name, NextPc()).second) {
    AITIA_LOG(kError) << "duplicate label " << name << " in " << name_;
    std::abort();
  }
  return *this;
}

ProgramBuilder& ProgramBuilder::MovImm(Reg rd, Word imm) {
  Emit({.op = Op::kMovImm, .rd = rd, .imm = imm});
  return *this;
}

ProgramBuilder& ProgramBuilder::Mov(Reg rd, Reg rs) {
  Emit({.op = Op::kMov, .rd = rd, .rs = rs});
  return *this;
}

ProgramBuilder& ProgramBuilder::AddImm(Reg rd, Reg rs, Word imm) {
  Emit({.op = Op::kAddImm, .rd = rd, .rs = rs, .imm = imm});
  return *this;
}

ProgramBuilder& ProgramBuilder::Add(Reg rd, Reg rs, Reg rt) {
  Emit({.op = Op::kAdd, .rd = rd, .rs = rs, .rt = rt});
  return *this;
}

ProgramBuilder& ProgramBuilder::Sub(Reg rd, Reg rs, Reg rt) {
  Emit({.op = Op::kSub, .rd = rd, .rs = rs, .rt = rt});
  return *this;
}

ProgramBuilder& ProgramBuilder::Lea(Reg rd, Addr global) {
  Emit({.op = Op::kLea, .rd = rd, .imm = static_cast<Word>(global)});
  return *this;
}

ProgramBuilder& ProgramBuilder::Load(Reg rd, Reg rs, Word off) {
  Emit({.op = Op::kLoad, .rd = rd, .rs = rs, .imm = off});
  return *this;
}

ProgramBuilder& ProgramBuilder::Store(Reg rd_base, Reg rs_value, Word off) {
  Emit({.op = Op::kStore, .rd = rd_base, .rs = rs_value, .imm = off});
  return *this;
}

ProgramBuilder& ProgramBuilder::StoreImm(Reg rd_base, Word value, Word off) {
  Emit({.op = Op::kStoreImm, .rd = rd_base, .imm = off, .imm2 = value});
  return *this;
}

ProgramBuilder& ProgramBuilder::Branch(Op op, Reg rs, Reg rt, const std::string& label) {
  Instr instr{.op = op, .rs = rs, .rt = rt};
  fixups_.emplace_back(code_.size(), label);
  Emit(std::move(instr));
  return *this;
}

ProgramBuilder& ProgramBuilder::Beqz(Reg rs, const std::string& label) {
  return Branch(Op::kBeqz, rs, R0, label);
}

ProgramBuilder& ProgramBuilder::Bnez(Reg rs, const std::string& label) {
  return Branch(Op::kBnez, rs, R0, label);
}

ProgramBuilder& ProgramBuilder::Beq(Reg rs, Reg rt, const std::string& label) {
  return Branch(Op::kBeq, rs, rt, label);
}

ProgramBuilder& ProgramBuilder::Bne(Reg rs, Reg rt, const std::string& label) {
  return Branch(Op::kBne, rs, rt, label);
}

ProgramBuilder& ProgramBuilder::Jmp(const std::string& label) {
  return Branch(Op::kJmp, R0, R0, label);
}

ProgramBuilder& ProgramBuilder::Call(const std::string& label) {
  return Branch(Op::kCall, R0, R0, label);
}

ProgramBuilder& ProgramBuilder::Ret() {
  Emit({.op = Op::kRet});
  return *this;
}

ProgramBuilder& ProgramBuilder::Exit() {
  Emit({.op = Op::kExit});
  return *this;
}

ProgramBuilder& ProgramBuilder::Alloc(Reg rd, Word cells, bool leak_checked) {
  Emit({.op = Op::kAlloc, .rd = rd, .imm = cells, .imm2 = leak_checked ? 1 : 0});
  return *this;
}

ProgramBuilder& ProgramBuilder::Free(Reg rs) {
  Emit({.op = Op::kFree, .rs = rs});
  return *this;
}

ProgramBuilder& ProgramBuilder::Lock(Reg rs, Word off) {
  Emit({.op = Op::kLock, .rs = rs, .imm = off});
  return *this;
}

ProgramBuilder& ProgramBuilder::Unlock(Reg rs, Word off) {
  Emit({.op = Op::kUnlock, .rs = rs, .imm = off});
  return *this;
}

ProgramBuilder& ProgramBuilder::BugOn(Reg rs_must_be_nonzero) {
  Emit({.op = Op::kAssert, .rs = rs_must_be_nonzero, .imm2 = 0});
  return *this;
}

ProgramBuilder& ProgramBuilder::WarnOn(Reg rs_must_be_nonzero) {
  Emit({.op = Op::kAssert, .rs = rs_must_be_nonzero, .imm2 = 1});
  return *this;
}

ProgramBuilder& ProgramBuilder::Nop() {
  Emit({.op = Op::kNop});
  return *this;
}

ProgramBuilder& ProgramBuilder::Resched() {
  Emit({.op = Op::kResched});
  return *this;
}

ProgramBuilder& ProgramBuilder::TlbFlush() {
  Emit({.op = Op::kTlbFlush});
  return *this;
}

ProgramBuilder& ProgramBuilder::QueueWork(ProgramId worker, Reg rs_arg) {
  Emit({.op = Op::kQueueWork, .rs = rs_arg, .imm = worker});
  return *this;
}

ProgramBuilder& ProgramBuilder::CallRcu(ProgramId callback, Reg rs_arg) {
  Emit({.op = Op::kCallRcu, .rs = rs_arg, .imm = callback});
  return *this;
}

ProgramBuilder& ProgramBuilder::ListAdd(Reg rs_head, Reg rt_value, Word off) {
  Emit({.op = Op::kListAdd, .rs = rs_head, .rt = rt_value, .imm = off});
  return *this;
}

ProgramBuilder& ProgramBuilder::ListDel(Reg rd_removed, Reg rs_head, Reg rt_value, Word off) {
  Emit({.op = Op::kListDel, .rd = rd_removed, .rs = rs_head, .rt = rt_value, .imm = off});
  return *this;
}

ProgramBuilder& ProgramBuilder::ListContains(Reg rd, Reg rs_head, Reg rt_value, Word off) {
  Emit({.op = Op::kListContains, .rd = rd, .rs = rs_head, .rt = rt_value, .imm = off});
  return *this;
}

ProgramBuilder& ProgramBuilder::ListPop(Reg rd, Reg rs_head, Word off) {
  Emit({.op = Op::kListPop, .rd = rd, .rs = rs_head, .imm = off});
  return *this;
}

ProgramBuilder& ProgramBuilder::ListLen(Reg rd, Reg rs_head, Word off) {
  Emit({.op = Op::kListLen, .rd = rd, .rs = rs_head, .imm = off});
  return *this;
}

ProgramBuilder& ProgramBuilder::RefGet(Reg rs_base, Word off) {
  Emit({.op = Op::kRefGet, .rs = rs_base, .imm = off});
  return *this;
}

ProgramBuilder& ProgramBuilder::RefPut(Reg rd_hit_zero, Reg rs_base, Word off) {
  Emit({.op = Op::kRefPut, .rd = rd_hit_zero, .rs = rs_base, .imm = off});
  return *this;
}

Program ProgramBuilder::Build() {
  for (const auto& [index, label] : fixups_) {
    auto it = labels_.find(label);
    if (it == labels_.end()) {
      AITIA_LOG(kError) << "undefined label " << label << " in " << name_;
      std::abort();
    }
    code_[index].imm = it->second;
  }
  fixups_.clear();
  // Every program must end in control flow that cannot fall off the end, and
  // every label must bind to an instruction: a label after the last one
  // targets the implicit exit.
  const bool label_past_end = std::any_of(labels_.begin(), labels_.end(), [&](const auto& l) {
    return l.second == NextPc();
  });
  if (code_.empty() || label_past_end ||
      (code_.back().op != Op::kExit && code_.back().op != Op::kRet &&
       code_.back().op != Op::kJmp)) {
    code_.push_back({.op = Op::kExit});
  }
  Program p;
  p.name = name_;
  p.code = std::move(code_);
  return p;
}

}  // namespace aitia
