// Process-wide cache of decoded programs, keyed by ir::fingerprint.
//
// The search layer evaluates the same optimized module many times under
// different guises: svc warm paths re-tune identical code, GA elites
// survive generations unchanged, and duplicate offspring converge to the
// same fingerprint. Decoding is cheap but not free (linear in code size,
// one allocation burst per function), and under a parallel GA it would
// otherwise run once per Simulator construction. Sharing one immutable
// DecodedProgram per fingerprint makes Simulator construction a hash
// lookup on the warm path.
//
// Entries are immutable and handed out as shared_ptr<const>, so eviction
// never invalidates a running Simulator. A bounded LRU keeps a long-lived
// tuning service from accumulating one entry per candidate ever seen.
//
// Storage, LRU and single-flight fill are a support::SingleFlightCache:
// when several threads miss on the same fingerprint simultaneously (a
// parallel GA generation full of identical offspring), one decodes and the
// rest wait for its program, so every unique fingerprint is decoded
// exactly once, and an in-flight decode is never evicted.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/decoded_program.hpp"
#include "support/single_flight.hpp"

namespace ilc::sim {

class ProgramCache {
 public:
  /// The process-wide instance used by Simulator construction.
  static ProgramCache& instance();

  explicit ProgramCache(std::size_t capacity = 1024);

  /// Decoded program for `mod`, decoding on miss. Fingerprints the module;
  /// use the two-argument form when the caller already has the print.
  /// Thread-safe; concurrent misses on one fingerprint decode once.
  std::shared_ptr<const DecodedProgram> get(const ir::Module& mod);
  std::shared_ptr<const DecodedProgram> get(const ir::Module& mod,
                                            std::uint64_t fingerprint);

  std::size_t size() const { return cache_.size(); }
  std::uint64_t hits() const { return cache_.hits(); }
  std::uint64_t misses() const { return cache_.misses(); }
  std::uint64_t evictions() const { return cache_.evictions(); }
  void clear() { cache_.clear(); }

 private:
  support::SingleFlightCache<std::uint64_t,
                             std::shared_ptr<const DecodedProgram>>
      cache_;
};

}  // namespace ilc::sim
