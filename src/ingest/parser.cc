#include "src/ingest/parser.h"

#include <set>
#include <utility>

#include "src/util/strings.h"

namespace aitia {
namespace {

// Cursor over one line's tokens; knows where the line ends so "expected X"
// diagnostics can point one past the last token.
class LineCursor {
 public:
  LineCursor(const std::vector<Token>& toks, int line_no) : toks_(&toks), line_no_(line_no) {
    end_col_ = toks.empty() ? 1 : toks.back().pos.col + static_cast<int>(toks.back().text.size());
  }

  bool AtEnd() const { return i_ >= toks_->size(); }
  const Token* Peek() const { return AtEnd() ? nullptr : &(*toks_)[i_]; }
  const Token& Next() { return (*toks_)[i_++]; }
  SourcePos Here() const { return AtEnd() ? SourcePos{line_no_, end_col_} : (*toks_)[i_].pos; }

 private:
  const std::vector<Token>* toks_;
  size_t i_ = 0;
  int line_no_;
  int end_col_;
};

class Parser {
 public:
  Parser(std::string_view text, std::string filename)
      : text_(text), filename_(std::move(filename)) {
    doc_.filename = filename_;
  }

  StatusOr<TraceDoc> Run();

 private:
  Status Error(SourcePos pos, const std::string& message) const {
    return Status::InvalidArgument(StrFormat("%s:%d:%d: %s", filename_.c_str(), pos.line,
                                             pos.col, message.c_str()));
  }

  Status HandleLine(LineCursor& cur);
  Status HandleTopLevel(LineCursor& cur, const Token& head);
  Status HandleInstr(LineCursor& cur, const Token& head);
  Status HandleGlobal(LineCursor& cur);
  Status HandleThread(LineCursor& cur, AitSection section);
  Status HandleIrq(LineCursor& cur);
  Status HandleTruth(LineCursor& cur);
  Status CloseProgram();

  // --- token expectations ----------------------------------------------------
  Status ExpectIdent(LineCursor& cur, const char* what, Token* out);
  // An identifier or a quoted string (names may need quoting).
  Status ExpectName(LineCursor& cur, const char* what, Token* out);
  Status ExpectInt(LineCursor& cur, const char* what, Token* out);
  Status ExpectComma(LineCursor& cur);
  Status ExpectLineEnd(LineCursor& cur);
  Status ExpectReg(LineCursor& cur, uint8_t* out);

  std::string_view text_;
  std::string filename_;
  TraceDoc doc_;
  // Names in doc_.globals, so the duplicate check stays O(log n) per line.
  std::set<std::string> global_names_;
  bool version_seen_ = false;
  bool scenario_seen_ = false;
  bool in_program_ = false;
};

Status Parser::ExpectIdent(LineCursor& cur, const char* what, Token* out) {
  if (cur.AtEnd() || cur.Peek()->kind != TokenKind::kIdent) {
    return Error(cur.Here(), StrFormat("expected %s", what));
  }
  *out = cur.Next();
  return OkStatus();
}

Status Parser::ExpectName(LineCursor& cur, const char* what, Token* out) {
  if (cur.AtEnd() || (cur.Peek()->kind != TokenKind::kIdent &&
                      cur.Peek()->kind != TokenKind::kString)) {
    return Error(cur.Here(), StrFormat("expected %s", what));
  }
  *out = cur.Next();
  return OkStatus();
}

Status Parser::ExpectInt(LineCursor& cur, const char* what, Token* out) {
  if (cur.AtEnd() || cur.Peek()->kind != TokenKind::kInt) {
    return Error(cur.Here(), StrFormat("expected %s", what));
  }
  *out = cur.Next();
  return OkStatus();
}

Status Parser::ExpectComma(LineCursor& cur) {
  if (cur.AtEnd() || cur.Peek()->kind != TokenKind::kComma) {
    return Error(cur.Here(), "expected ','");
  }
  cur.Next();
  return OkStatus();
}

Status Parser::ExpectLineEnd(LineCursor& cur) {
  if (!cur.AtEnd()) {
    return Error(cur.Here(), StrFormat("unexpected trailing '%s'", cur.Peek()->text.c_str()));
  }
  return OkStatus();
}

Status Parser::ExpectReg(LineCursor& cur, uint8_t* out) {
  if (cur.AtEnd() || cur.Peek()->kind != TokenKind::kIdent) {
    return Error(cur.Here(), "expected register (r0..r15)");
  }
  const Token& tok = cur.Next();
  Reg reg;
  if (!ParseRegToken(tok.text, &reg)) {
    return Error(tok.pos, StrFormat("bad register name '%s' (want r0..r15)", tok.text.c_str()));
  }
  *out = static_cast<uint8_t>(reg);
  return OkStatus();
}

Status Parser::HandleInstr(LineCursor& cur, const Token& head) {
  const MnemonicInfo* info = FindMnemonic(head.text);
  if (info == nullptr) {
    return Error(head.pos, StrFormat("unknown mnemonic '%s'", head.text.c_str()));
  }
  AitInstr instr;
  instr.info = info;
  instr.pos = head.pos;

  bool first = true;
  for (const char* sig = info->signature; *sig != '\0'; ++sig) {
    const char kind = *sig;
    const bool optional = kind == 'o' || kind == 'K';
    if (optional) {
      if (cur.AtEnd() || cur.Peek()->kind != TokenKind::kComma) {
        continue;  // optional operand omitted
      }
      cur.Next();  // the comma
    } else if (!first) {
      Status s = ExpectComma(cur);
      if (!s.ok()) {
        return s;
      }
    }
    first = false;
    Token tok;
    switch (kind) {
      case 'd': {
        Status s = ExpectReg(cur, &instr.rd);
        if (!s.ok()) return s;
        break;
      }
      case 's': {
        Status s = ExpectReg(cur, &instr.rs);
        if (!s.ok()) return s;
        break;
      }
      case 't': {
        Status s = ExpectReg(cur, &instr.rt);
        if (!s.ok()) return s;
        break;
      }
      case 'i': {
        Status s = ExpectInt(cur, "immediate", &tok);
        if (!s.ok()) return s;
        instr.imm = tok.value;
        break;
      }
      case 'I': {
        Status s = ExpectInt(cur, "immediate", &tok);
        if (!s.ok()) return s;
        instr.imm2 = tok.value;
        break;
      }
      case 'o': {
        Status s = ExpectInt(cur, "offset", &tok);
        if (!s.ok()) return s;
        instr.off = tok.value;
        break;
      }
      case 'K': {
        Status s = ExpectIdent(cur, "'leak'", &tok);
        if (!s.ok()) return s;
        if (tok.text != "leak") {
          return Error(tok.pos, StrFormat("expected 'leak', got '%s'", tok.text.c_str()));
        }
        instr.leak = true;
        break;
      }
      case 'G': {
        if (!cur.AtEnd() && cur.Peek()->kind == TokenKind::kInt) {
          tok = cur.Next();
          instr.sym_is_number = true;
          instr.imm = tok.value;
          instr.sym_pos = tok.pos;
        } else {
          Status s = ExpectName(cur, "global name (or address)", &tok);
          if (!s.ok()) return s;
          instr.sym = tok.text;
          instr.sym_pos = tok.pos;
        }
        break;
      }
      case 'L': {
        Status s = ExpectIdent(cur, "label name", &tok);
        if (!s.ok()) return s;
        instr.sym = tok.text;
        instr.sym_pos = tok.pos;
        break;
      }
      case 'P': {
        Status s = ExpectName(cur, "program name", &tok);
        if (!s.ok()) return s;
        instr.sym = tok.text;
        instr.sym_pos = tok.pos;
        break;
      }
      default:
        return Error(head.pos, "internal: bad signature");
    }
  }

  if (!cur.AtEnd() && cur.Peek()->kind == TokenKind::kIdent && cur.Peek()->text == "note") {
    const Token note_kw = cur.Next();
    if (cur.AtEnd() || cur.Peek()->kind != TokenKind::kString) {
      return Error(cur.Here(), "expected quoted string after 'note'");
    }
    (void)note_kw;
    instr.note = cur.Next().text;
  }
  Status s = ExpectLineEnd(cur);
  if (!s.ok()) {
    return s;
  }
  doc_.programs.back().items.push_back(std::move(instr));
  return OkStatus();
}

Status Parser::CloseProgram() {
  AitProgram& prog = doc_.programs.back();
  std::set<std::string> defined;
  for (const AitInstr& item : prog.items) {
    if (item.info->is_label && !defined.insert(item.sym).second) {
      return Error(item.sym_pos, StrFormat("duplicate label '%s' in program '%s'",
                                           item.sym.c_str(), prog.name.c_str()));
    }
  }
  for (const AitInstr& item : prog.items) {
    if (item.info->is_label) {
      continue;
    }
    const char* sig = item.info->signature;
    if (std::string_view(sig).find('L') != std::string_view::npos &&
        defined.count(item.sym) == 0) {
      return Error(item.sym_pos, StrFormat("undefined label '%s' in program '%s'",
                                           item.sym.c_str(), prog.name.c_str()));
    }
  }
  in_program_ = false;
  return OkStatus();
}

Status Parser::HandleGlobal(LineCursor& cur) {
  Token name;
  Status s = ExpectName(cur, "global name", &name);
  if (!s.ok()) {
    return s;
  }
  if (!global_names_.insert(name.text).second) {
    return Error(name.pos, StrFormat("duplicate global '%s'", name.text.c_str()));
  }
  AitGlobal global;
  global.name = name.text;
  global.pos = name.pos;
  if (!cur.AtEnd() && cur.Peek()->kind == TokenKind::kAmp) {
    cur.Next();
    Token ref;
    s = ExpectName(cur, "global name after '&'", &ref);
    if (!s.ok()) {
      return s;
    }
    global.init_ref = ref.text;
    global.init_pos = ref.pos;
  } else {
    Token init;
    s = ExpectInt(cur, "initial value (or &global)", &init);
    if (!s.ok()) {
      return s;
    }
    global.init = init.value;
    global.init_pos = init.pos;
  }
  doc_.globals.push_back(std::move(global));
  return ExpectLineEnd(cur);
}

Status Parser::HandleThread(LineCursor& cur, AitSection section) {
  AitThread thread;
  thread.section = section;
  Token name;
  Status s = ExpectName(cur, "thread name", &name);
  if (!s.ok()) {
    return s;
  }
  thread.name = name.text;
  thread.pos = name.pos;
  Token prog;
  s = ExpectName(cur, "program name", &prog);
  if (!s.ok()) {
    return s;
  }
  thread.program = prog.text;
  thread.program_pos = prog.pos;
  while (!cur.AtEnd()) {
    Token clause;
    s = ExpectIdent(cur, "clause ('arg', 'kind' or 'resource')", &clause);
    if (!s.ok()) {
      return s;
    }
    if (clause.text == "arg") {
      Token arg;
      s = ExpectInt(cur, "integer after 'arg'", &arg);
      if (!s.ok()) {
        return s;
      }
      thread.arg = arg.value;
    } else if (clause.text == "kind") {
      Token kind;
      s = ExpectIdent(cur, "thread kind (syscall|kworker|rcu|hardirq)", &kind);
      if (!s.ok()) {
        return s;
      }
      if (!ParseThreadKindToken(kind.text, &thread.kind)) {
        return Error(kind.pos, StrFormat("unknown thread kind '%s'", kind.text.c_str()));
      }
    } else if (clause.text == "resource") {
      Token res;
      s = ExpectName(cur, "resource tag after 'resource'", &res);
      if (!s.ok()) {
        return s;
      }
      thread.has_resource = true;
      thread.resource = res.text;
    } else {
      return Error(clause.pos, StrFormat("unknown clause '%s'", clause.text.c_str()));
    }
  }
  doc_.threads.push_back(std::move(thread));
  return OkStatus();
}

Status Parser::HandleIrq(LineCursor& cur) {
  AitIrq irq;
  Token handler;
  Status s = ExpectName(cur, "IRQ handler program name", &handler);
  if (!s.ok()) {
    return s;
  }
  irq.handler = handler.text;
  irq.handler_pos = handler.pos;
  irq.pos = handler.pos;
  if (!cur.AtEnd()) {
    Token kw;
    s = ExpectIdent(cur, "'arg'", &kw);
    if (!s.ok()) {
      return s;
    }
    if (kw.text != "arg") {
      return Error(kw.pos, StrFormat("unknown clause '%s'", kw.text.c_str()));
    }
    Token arg;
    s = ExpectInt(cur, "integer after 'arg'", &arg);
    if (!s.ok()) {
      return s;
    }
    irq.arg = arg.value;
  }
  doc_.irqs.push_back(std::move(irq));
  return ExpectLineEnd(cur);
}

Status Parser::HandleTruth(LineCursor& cur) {
  Token key;
  Status s = ExpectIdent(cur, "truth key", &key);
  if (!s.ok()) {
    return s;
  }
  GroundTruth& truth = doc_.truth;

  auto expect_bool = [&](bool* out) -> Status {
    Token tok;
    Status st = ExpectIdent(cur, "'true' or 'false'", &tok);
    if (!st.ok()) {
      return st;
    }
    if (tok.text == "true") {
      *out = true;
    } else if (tok.text == "false") {
      *out = false;
    } else {
      return Error(tok.pos, StrFormat("expected 'true' or 'false', got '%s'", tok.text.c_str()));
    }
    return OkStatus();
  };
  auto expect_count = [&](int* out) -> Status {
    Token tok;
    Status st = ExpectInt(cur, "integer", &tok);
    if (!st.ok()) {
      return st;
    }
    *out = static_cast<int>(tok.value);
    return OkStatus();
  };

  if (key.text == "failure") {
    Token tok;
    s = ExpectIdent(cur, "failure type token", &tok);
    if (!s.ok()) {
      return s;
    }
    if (!ParseFailureTypeToken(tok.text, &truth.failure_type)) {
      return Error(tok.pos, StrFormat("unknown failure type '%s'", tok.text.c_str()));
    }
  } else if (key.text == "multi_variable") {
    s = expect_bool(&truth.multi_variable);
  } else if (key.text == "loosely_correlated") {
    s = expect_bool(&truth.loosely_correlated);
  } else if (key.text == "muvi_assumption_holds") {
    s = expect_bool(&truth.muvi_assumption_holds);
  } else if (key.text == "single_variable_pattern") {
    s = expect_bool(&truth.single_variable_pattern);
  } else if (key.text == "expect_ambiguity") {
    s = expect_bool(&truth.expect_ambiguity);
  } else if (key.text == "paper_chain_races") {
    s = expect_count(&truth.paper_chain_races);
  } else if (key.text == "paper_interleavings") {
    s = expect_count(&truth.paper_interleavings);
  } else if (key.text == "expected_chain_races") {
    s = expect_count(&truth.expected_chain_races);
  } else if (key.text == "expected_interleavings") {
    s = expect_count(&truth.expected_interleavings);
  } else if (key.text == "racing_globals") {
    truth.racing_globals.clear();
    doc_.racing_global_pos.clear();
    while (!cur.AtEnd()) {
      Token tok;
      s = ExpectName(cur, "global name", &tok);
      if (!s.ok()) {
        return s;
      }
      truth.racing_globals.push_back(tok.text);
      doc_.racing_global_pos.push_back(tok.pos);
    }
    return OkStatus();
  } else {
    return Error(key.pos, StrFormat("unknown truth key '%s'", key.text.c_str()));
  }
  if (!s.ok()) {
    return s;
  }
  return ExpectLineEnd(cur);
}

Status Parser::HandleTopLevel(LineCursor& cur, const Token& head) {
  if (head.text == "scenario") {
    if (scenario_seen_) {
      return Error(head.pos, "duplicate 'scenario' declaration");
    }
    Token id;
    Status s = ExpectName(cur, "scenario id", &id);
    if (!s.ok()) {
      return s;
    }
    doc_.scenario_id = id.text;
    scenario_seen_ = true;
    return ExpectLineEnd(cur);
  }
  if (head.text == "subsystem" || head.text == "bug_kind") {
    Token value;
    Status s = ExpectName(cur, "quoted string", &value);
    if (!s.ok()) {
      return s;
    }
    (head.text == "subsystem" ? doc_.subsystem : doc_.bug_kind) = value.text;
    return ExpectLineEnd(cur);
  }
  if (head.text == "global") {
    return HandleGlobal(cur);
  }
  if (head.text == "program") {
    Token name;
    Status s = ExpectName(cur, "program name", &name);
    if (!s.ok()) {
      return s;
    }
    for (const AitProgram& p : doc_.programs) {
      if (p.name == name.text) {
        return Error(name.pos, StrFormat("duplicate program '%s'", name.text.c_str()));
      }
    }
    AitProgram prog;
    prog.name = name.text;
    prog.pos = name.pos;
    doc_.programs.push_back(std::move(prog));
    in_program_ = true;
    return ExpectLineEnd(cur);
  }
  if (head.text == "end") {
    return Error(head.pos, "'end' outside of a program block");
  }
  if (head.text == "slice") {
    return HandleThread(cur, AitSection::kSlice);
  }
  if (head.text == "setup") {
    return HandleThread(cur, AitSection::kSetup);
  }
  if (head.text == "noise") {
    return HandleThread(cur, AitSection::kNoise);
  }
  if (head.text == "irq") {
    return HandleIrq(cur);
  }
  if (head.text == "truth") {
    return HandleTruth(cur);
  }
  return Error(head.pos, StrFormat("unknown directive '%s'", head.text.c_str()));
}

Status Parser::HandleLine(LineCursor& cur) {
  Token head;
  Status s = ExpectIdent(cur, in_program_ ? "mnemonic or 'end'" : "directive", &head);
  if (!s.ok()) {
    return s;
  }
  if (!version_seen_) {
    if (head.text != "ait") {
      return Error(head.pos, "file must start with 'ait <version>'");
    }
    Token version;
    s = ExpectInt(cur, "format version", &version);
    if (!s.ok()) {
      return s;
    }
    if (version.value != kAitVersion) {
      return Error(version.pos, StrFormat("unsupported ait version %lld (this toolchain reads %d)",
                                          static_cast<long long>(version.value), kAitVersion));
    }
    version_seen_ = true;
    return ExpectLineEnd(cur);
  }
  if (in_program_) {
    if (head.text == "end") {
      s = ExpectLineEnd(cur);
      if (!s.ok()) {
        return s;
      }
      return CloseProgram();
    }
    return HandleInstr(cur, head);
  }
  return HandleTopLevel(cur, head);
}

StatusOr<TraceDoc> Parser::Run() {
  int line_no = 0;
  size_t start = 0;
  while (start <= text_.size()) {
    size_t nl = text_.find('\n', start);
    std::string_view line = text_.substr(
        start, nl == std::string_view::npos ? std::string_view::npos : nl - start);
    ++line_no;
    std::vector<Token> toks;
    Status s = TokenizeLine(line, line_no, &toks);
    if (!s.ok()) {
      return Status::InvalidArgument(filename_ + ":" + s.message());
    }
    if (!toks.empty()) {
      LineCursor cur(toks, line_no);
      s = HandleLine(cur);
      if (!s.ok()) {
        return s;
      }
    }
    if (nl == std::string_view::npos) {
      break;
    }
    start = nl + 1;
  }
  if (in_program_) {
    return Error({line_no, 1}, StrFormat("program '%s' not closed by 'end' before end of file",
                                         doc_.programs.back().name.c_str()));
  }
  if (!version_seen_) {
    return Error({1, 1}, "empty trace: missing 'ait <version>' header");
  }
  if (!scenario_seen_) {
    return Error({line_no, 1}, "missing 'scenario' declaration");
  }
  return std::move(doc_);
}

}  // namespace

StatusOr<TraceDoc> ParseTraceText(std::string_view text, const std::string& filename) {
  return Parser(text, filename).Run();
}

}  // namespace aitia
