#include "ir/fingerprint.hpp"

#include "support/hash.hpp"

namespace ilc::ir {

namespace {

void hash_instr(support::Hasher& h, const Instr& inst) {
  h.pod(inst.op).pod(inst.dst).pod(inst.a).pod(inst.b).pod(inst.imm);
  h.pod(inst.width).pod(inst.is_ptr).pod(inst.tag).pod(inst.rec);
  h.pod(inst.field).pod(inst.t1).pod(inst.t2).pod(inst.callee).pod(inst.gid);
  h.pod(inst.nargs);
  for (unsigned i = 0; i < inst.nargs; ++i) h.pod(inst.args[i]);
}

/// Fold `words` into `h` a word at a time. Initializers can be long
/// (mcf_lite carries 11,600 words), so four independent chains hide
/// hash_combine's multiply latency; distinct seeds keep word order
/// significant across chains.
std::uint64_t hash_words(std::uint64_t h,
                         const std::vector<std::int64_t>& words) {
  std::uint64_t chain[4] = {h, h + 1, h + 2, h + 3};
  const std::size_t n = words.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = static_cast<std::uint64_t>(words[i]);
    chain[i % 4] = support::hash_combine(chain[i % 4], w);
  }
  h = support::hash_combine(h, n);
  for (const std::uint64_t c : chain) h = support::hash_combine(h, c);
  return h;
}

}  // namespace

std::uint64_t fingerprint(const Function& fn) {
  support::Hasher h;
  h.str(fn.name).pod(fn.num_args).pod(fn.num_regs).pod(fn.frame_size);
  h.pod(fn.blocks.size());
  for (const BasicBlock& bb : fn.blocks) {
    h.pod(bb.insts.size());
    for (const Instr& inst : bb.insts) hash_instr(h, inst);
  }
  return h.digest();
}

std::uint64_t data_fingerprint(const Module& mod) {
  std::uint64_t h = mod.globals().size();
  for (const Global& g : mod.globals()) {
    h = hash_words(support::hash_combine(h, g.ptr_target), g.init);
    h = support::hash_combine(h, g.field_init.size());
    for (const FieldInit& fi : g.field_init)
      h = hash_words(support::hash_combine(h, fi.ptr_target), fi.values);
  }
  return h;
}

std::uint64_t fingerprint(const Module& mod, std::uint64_t data_fp) {
  support::Hasher h;
  h.str(mod.name);
  h.pod(mod.ptr_bytes());
  h.pod(mod.functions().size());
  for (const Function& fn : mod.functions()) h.pod(fingerprint(fn));
  // Globals and records participate because layout changes (pointer
  // compression) alter the executed image even with identical code.
  h.pod(mod.records().size());
  for (const RecordType& r : mod.records()) {
    h.str(r.name);
    for (const RecordField& f : r.fields) h.str(f.name).pod(f.kind);
  }
  h.pod(mod.globals().size());
  for (const Global& g : mod.globals()) {
    h.str(g.name).pod(g.kind).pod(g.count).pod(g.elem_width);
    h.pod(g.elem_is_ptr).pod(g.record);
  }
  return h.pod(data_fp).digest();
}

std::uint64_t fingerprint(const Module& mod) {
  return fingerprint(mod, data_fingerprint(mod));
}

}  // namespace ilc::ir
