#include "sim/program_cache.hpp"

#include "ir/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace ilc::sim {

namespace {

obs::Counter& c_pc_hits() {
  static obs::Counter c =
      obs::Registry::instance().counter("sim.program_cache.hits");
  return c;
}
obs::Counter& c_pc_misses() {
  static obs::Counter c =
      obs::Registry::instance().counter("sim.program_cache.misses");
  return c;
}
obs::Counter& c_pc_evictions() {
  static obs::Counter c =
      obs::Registry::instance().counter("sim.program_cache.evictions");
  return c;
}
obs::Histogram& h_decode_us() {
  static obs::Histogram h =
      obs::Registry::instance().histogram("sim.decode_us");
  return h;
}

}  // namespace

ProgramCache& ProgramCache::instance() {
  static ProgramCache cache;
  return cache;
}

ProgramCache::ProgramCache(std::size_t capacity)
    : cache_(capacity, [] { c_pc_evictions().add(1); }) {}

std::shared_ptr<const DecodedProgram> ProgramCache::get(
    const ir::Module& mod) {
  return get(mod, ir::fingerprint(mod));
}

std::shared_ptr<const DecodedProgram> ProgramCache::get(
    const ir::Module& mod, std::uint64_t fingerprint) {
  bool decoded = false;
  auto program = cache_.get_or_compute(fingerprint, [&] {
    decoded = true;
    c_pc_misses().add(1);
    obs::ScopedTimerUs timer(h_decode_us());
    return decode_program(mod, fingerprint);
  });
  if (!decoded) c_pc_hits().add(1);
  return program;
}

}  // namespace ilc::sim
