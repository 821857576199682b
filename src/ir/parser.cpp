#include "ir/parser.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

#include "support/assert.hpp"
#include "support/string_utils.hpp"

namespace ilc::ir {

namespace {

using support::split;
using support::split_ws;
using support::starts_with;
using support::trim;

/// Cursor over one line with line-numbered error reporting.
class LineParser {
 public:
  LineParser(const std::string& line, std::size_t line_no)
      : s_(line), line_no_(line_no) {}

  [[noreturn]] void fail(const std::string& msg) const {
    ILC_CHECK_MSG(false, "IR parse error at line " << line_no_ << ": " << msg
                                                   << " in '" << s_ << "'");
    std::abort();  // unreachable
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  bool eat(const std::string& token) {
    skip_ws();
    if (s_.compare(pos_, token.size(), token) == 0) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void expect(const std::string& token) {
    if (!eat(token)) fail("expected '" + token + "'");
  }

  bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }

  std::int64_t integer() {
    skip_ws();
    const char* first = s_.data() + pos_;
    const char* const last = s_.data() + s_.size();
    if (first != last && *first == '+') ++first;
    std::int64_t value = 0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc()) fail("expected integer");
    pos_ = static_cast<std::size_t>(end - s_.data());
    return value;
  }

  std::string word() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '_' || s_[pos_] == '.'))
      ++pos_;
    if (pos_ == start) fail("expected identifier");
    return s_.substr(start, pos_ - start);
  }

  /// Register name: rN or _ (no register).
  Reg reg() {
    skip_ws();
    if (eat("_")) return kNoReg;
    expect("r");
    return static_cast<Reg>(integer());
  }

  BlockId block() {
    expect("bb");
    return static_cast<BlockId>(integer());
  }

 private:
  std::string s_;
  std::size_t pos_ = 0;
  std::size_t line_no_;
};

FieldKind field_kind_from(const std::string& name, LineParser& lp) {
  if (name == "i8") return FieldKind::I8;
  if (name == "i16") return FieldKind::I16;
  if (name == "i32") return FieldKind::I32;
  if (name == "i64") return FieldKind::I64;
  if (name == "ptr") return FieldKind::Ptr;
  lp.fail("unknown field kind '" + name + "'");
}

/// Parse the optional "!field(recN.M)" / "!stride(recN)" / "!ptrwidth"
/// annotation into the instruction.
void parse_annotation(LineParser& lp, Instr& inst) {
  if (lp.eat("!field(rec")) {
    inst.tag = ImmTag::FieldOffset;
    inst.rec = static_cast<RecordId>(lp.integer());
    lp.expect(".");
    inst.field = static_cast<FieldId>(lp.integer());
    lp.expect(")");
  } else if (lp.eat("!stride(rec")) {
    inst.tag = ImmTag::RecordStride;
    inst.rec = static_cast<RecordId>(lp.integer());
    lp.expect(")");
  } else if (lp.eat("!ptrwidth")) {
    inst.tag = ImmTag::PtrWidth;
  }
}

MemWidth parse_width(std::int64_t bytes, LineParser& lp) {
  switch (bytes) {
    case 1: return MemWidth::W1;
    case 2: return MemWidth::W2;
    case 4: return MemWidth::W4;
    case 8: return MemWidth::W8;
    default: lp.fail("bad access width");
  }
}

Opcode binop_from_name(const std::string& name, bool& found) {
  found = true;
  for (Opcode op : {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
                    Opcode::Rem, Opcode::And, Opcode::Or, Opcode::Xor,
                    Opcode::Shl, Opcode::Shr, Opcode::Min, Opcode::Max,
                    Opcode::CmpEq, Opcode::CmpNe, Opcode::CmpLt,
                    Opcode::CmpLe, Opcode::CmpGt, Opcode::CmpGe}) {
    if (name == opcode_name(op)) return op;
  }
  found = false;
  return Opcode::Nop;
}

Instr parse_instr(const std::string& line, std::size_t line_no) {
  LineParser lp(line, line_no);
  Instr inst;

  if (lp.eat("nop")) {
    inst.op = Opcode::Nop;
    return inst;
  }
  if (lp.eat("jump ")) {
    inst.op = Opcode::Jump;
    inst.t1 = lp.block();
    return inst;
  }
  if (lp.eat("br ")) {
    inst.op = Opcode::Br;
    inst.a = lp.reg();
    lp.expect(",");
    inst.t1 = lp.block();
    lp.expect(",");
    inst.t2 = lp.block();
    return inst;
  }
  if (lp.eat("ret")) {
    inst.op = Opcode::Ret;
    inst.a = lp.at_end() ? kNoReg : lp.reg();
    return inst;
  }
  if (lp.eat("prefetch ")) {
    inst.op = Opcode::Prefetch;
    lp.expect("[");
    inst.a = lp.reg();
    lp.expect("+");
    inst.imm = lp.integer();
    lp.expect("]");
    return inst;
  }
  if (lp.eat("store.")) {
    inst.op = Opcode::Store;
    inst.width = parse_width(lp.integer(), lp);
    if (lp.eat("p")) inst.is_ptr = true;
    lp.expect("[");
    inst.a = lp.reg();
    lp.expect("+");
    inst.imm = lp.integer();
    lp.expect("]");
    lp.expect(",");
    inst.b = lp.reg();
    parse_annotation(lp, inst);
    return inst;
  }
  if (lp.eat("call ")) {  // void call
    inst.op = Opcode::Call;
    inst.dst = kNoReg;
    lp.expect("@");
    inst.callee = static_cast<FuncId>(lp.integer());
    lp.expect("(");
    while (!lp.eat(")")) {
      if (inst.nargs > 0) lp.expect(",");
      ILC_CHECK(inst.nargs < kMaxCallArgs);
      inst.args[inst.nargs++] = lp.reg();
    }
    return inst;
  }

  // Everything else defines a register: "rN = ...".
  inst.dst = lp.reg();
  lp.expect("=");

  if (lp.eat("imm ")) {
    inst.op = Opcode::LoadImm;
    inst.imm = lp.integer();
    parse_annotation(lp, inst);
    return inst;
  }
  if (lp.eat("gaddr ")) {
    inst.op = Opcode::GlobalAddr;
    lp.expect("@");
    inst.gid = static_cast<GlobalId>(lp.integer());
    return inst;
  }
  if (lp.eat("faddr ")) {
    inst.op = Opcode::FrameAddr;
    lp.expect("+");
    inst.imm = lp.integer();
    return inst;
  }
  if (lp.eat("load.")) {
    inst.op = Opcode::Load;
    inst.width = parse_width(lp.integer(), lp);
    if (lp.eat("p")) inst.is_ptr = true;
    lp.expect("[");
    inst.a = lp.reg();
    lp.expect("+");
    inst.imm = lp.integer();
    lp.expect("]");
    parse_annotation(lp, inst);
    return inst;
  }
  if (lp.eat("call ")) {
    inst.op = Opcode::Call;
    lp.expect("@");
    inst.callee = static_cast<FuncId>(lp.integer());
    lp.expect("(");
    while (!lp.eat(")")) {
      if (inst.nargs > 0) lp.expect(",");
      ILC_CHECK(inst.nargs < kMaxCallArgs);
      inst.args[inst.nargs++] = lp.reg();
    }
    return inst;
  }

  const std::string op_name = lp.word();
  if (op_name == "mov" || op_name == "neg" || op_name == "not") {
    inst.op = op_name == "mov" ? Opcode::Mov
                               : (op_name == "neg" ? Opcode::Neg : Opcode::Not);
    inst.a = lp.reg();
    return inst;
  }
  bool found = false;
  inst.op = binop_from_name(op_name, found);
  if (!found) lp.fail("unknown opcode '" + op_name + "'");
  inst.a = lp.reg();
  lp.expect(",");
  inst.b = lp.reg();
  return inst;
}

/// "N" of a "@N" global reference whose '@' was already consumed.
GlobalId global_id(LineParser& lp) {
  const std::int64_t id = lp.integer();
  if (id < 0 || id >= kNoGlobal) lp.fail("bad global id");
  return static_cast<GlobalId>(id);
}

/// The already declared global named by "@N".
Global& declared_global(Module& mod, LineParser& lp) {
  lp.expect("@");
  const GlobalId id = global_id(lp);
  if (id >= mod.globals().size()) lp.fail("undeclared global");
  return mod.global(id);
}

/// Append the rest of the line's integers to `words`, at most `count`.
void append_words(LineParser& lp, std::uint64_t count,
                  std::vector<std::int64_t>& words) {
  while (!lp.at_end()) {
    if (words.size() >= count) lp.fail("more initializers than elements");
    words.push_back(lp.integer());
  }
}

}  // namespace

Module parse_module(const std::string& text) {
  Module mod;
  Function* fn = nullptr;
  BasicBlock* bb = nullptr;

  const auto lines = split(text, '\n');
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    const std::string line = trim(lines[ln]);
    const std::size_t line_no = ln + 1;
    if (line.empty()) continue;
    LineParser lp(line, line_no);

    if (starts_with(line, "module ")) {
      lp.expect("module");
      // The name may be empty (anonymous modules print "module  ptr=N").
      if (!lp.eat("ptr=")) {
        mod.name = lp.word();
        lp.expect("ptr=");
      }
      mod.set_ptr_bytes(static_cast<unsigned>(lp.integer()));
      continue;
    }
    if (starts_with(line, "record ")) {
      lp.expect("record");
      lp.expect("rec");
      lp.integer();  // id: sequential, implied
      RecordType rec;
      rec.name = lp.word();
      lp.expect("{");
      while (!lp.eat("}")) {
        if (!rec.fields.empty()) lp.expect(",");
        RecordField field;
        field.name = lp.word();
        lp.expect(":");
        field.kind = field_kind_from(lp.word(), lp);
        rec.fields.push_back(std::move(field));
      }
      mod.add_record(std::move(rec));
      continue;
    }
    if (starts_with(line, "global ")) {
      lp.expect("global");
      lp.expect("@");
      lp.integer();  // id: sequential, implied
      Global g;
      g.name = lp.word();
      lp.expect("count=");
      g.count = static_cast<std::uint64_t>(lp.integer());
      if (lp.eat("record=rec")) {
        g.kind = GlobalKind::RecordArray;
        g.record = static_cast<RecordId>(lp.integer());
      } else {
        lp.expect("width=");
        const std::int64_t width = lp.integer();
        if (lp.eat("ptr")) {
          g.elem_is_ptr = true;
        } else {
          g.elem_width = static_cast<std::uint8_t>(width);
        }
      }
      if (lp.eat("target=@")) g.ptr_target = global_id(lp);
      mod.add_global(std::move(g));
      continue;
    }
    if (starts_with(line, "init ")) {
      lp.expect("init");
      Global& g = declared_global(mod, lp);
      if (g.kind != GlobalKind::RawArray) lp.fail("init on a record array");
      append_words(lp, g.count, g.init);
      continue;
    }
    if (starts_with(line, "field_init ")) {
      lp.expect("field_init");
      Global& g = declared_global(mod, lp);
      if (g.kind != GlobalKind::RecordArray)
        lp.fail("field_init on a raw array");
      const std::int64_t f = lp.integer();
      const auto next = static_cast<std::int64_t>(g.field_init.size());
      const auto nfields =
          static_cast<std::int64_t>(mod.record(g.record).fields.size());
      // Fields come in order; a repeated index continues that field.
      if (f == next && f < nfields)
        g.field_init.emplace_back();
      else if (next == 0 || f != next - 1)
        lp.fail("bad field index");
      FieldInit& fi = g.field_init.back();
      if (lp.eat("target=@")) fi.ptr_target = global_id(lp);
      append_words(lp, g.count, fi.values);
      continue;
    }
    if (starts_with(line, "func ")) {
      lp.expect("func");
      lp.expect("@");
      Function f;
      f.name = lp.word();
      lp.expect("(");
      f.num_args = static_cast<unsigned>(lp.integer());
      lp.expect(")");
      lp.expect("regs=");
      f.num_regs = static_cast<unsigned>(lp.integer());
      lp.expect("frame=");
      f.frame_size = static_cast<unsigned>(lp.integer());
      lp.expect("{");
      mod.add_function(std::move(f));
      fn = &mod.functions().back();
      bb = nullptr;
      continue;
    }
    if (line == "}") {
      fn = nullptr;
      bb = nullptr;
      continue;
    }
    if (starts_with(line, "bb") && line.back() == ':') {
      ILC_CHECK_MSG(fn != nullptr, "block label outside function at line "
                                       << line_no);
      const BlockId id = fn->new_block();
      ILC_CHECK_MSG(line == "bb" + std::to_string(id) + ":",
                    "non-sequential block label at line " << line_no);
      bb = &fn->blocks[id];
      continue;
    }
    // Otherwise: an instruction inside the current block.
    ILC_CHECK_MSG(fn != nullptr && bb != nullptr,
                  "instruction outside block at line " << line_no);
    bb->insts.push_back(parse_instr(line, line_no));
  }
  // Initializers must be complete and point at declared globals, or
  // building the memory image would read out of bounds.
  for (const Global& g : mod.globals()) {
    ILC_CHECK_MSG(g.ptr_target == kNoGlobal ||
                      g.ptr_target < mod.globals().size(),
                  "global " << g.name << " targets an undeclared global");
    if (g.kind != GlobalKind::RecordArray) continue;
    ILC_CHECK_MSG(g.field_init.empty() ||
                      g.field_init.size() ==
                          mod.record(g.record).fields.size(),
                  "global " << g.name << " initializes only some fields");
    for (const FieldInit& fi : g.field_init)
      ILC_CHECK_MSG(fi.ptr_target == kNoGlobal ||
                        fi.ptr_target < mod.globals().size(),
                    "global " << g.name << " targets an undeclared global");
  }
  return mod;
}

}  // namespace ilc::ir
