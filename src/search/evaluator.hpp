// The performance oracle used by every search strategy: apply an
// optimization configuration to a pristine copy of the program, simulate
// it, and memoize the result by the fingerprint of the optimized module —
// distinct sequences frequently converge to identical code, and the cache
// collapses them (design decision #4 in DESIGN.md).
//
// Built for concurrent callers (the parallel GA and the tuning service):
// the memo is striped across 16 unbounded support::SingleFlightCache
// shards so unrelated fingerprints never contend, and each shard is
// single-flight — when two workers miss on the same fingerprint
// simultaneously, one simulates and the others wait for its result, so
// every unique fingerprint is simulated exactly once. Candidate
// materialization reuses a per-thread scratch module (copy-assignment into
// retained capacity) instead of constructing a fresh deep copy per
// candidate.
#pragma once

#include <array>
#include <atomic>

#include "ir/module.hpp"
#include "opt/pipelines.hpp"
#include "sim/interpreter.hpp"
#include "support/single_flight.hpp"

namespace ilc::search {

struct EvalResult {
  std::uint64_t cycles = 0;
  std::uint64_t code_size = 0;
  std::uint64_t instructions = 0;
  sim::Counters counters;
};

class Evaluator {
 public:
  Evaluator(const ir::Module& base, sim::MachineConfig cfg);

  /// Apply a pass sequence and measure. Thread-safe.
  EvalResult eval_sequence(const std::vector<opt::PassId>& seq);
  /// Apply a flag-vector pipeline and measure. Thread-safe.
  EvalResult eval_flags(const opt::OptFlags& flags);

  /// Optimized module for a configuration (no caching; for inspection).
  ir::Module optimized(const std::vector<opt::PassId>& seq) const;

  /// Number of real simulations performed / cache hits observed. Atomic,
  /// so harnesses may poll them while workers are still evaluating.
  /// A thread that joins an in-flight simulation of the same fingerprint
  /// counts as a cache hit (it did not simulate).
  std::size_t simulations() const {
    return simulations_.load(std::memory_order_relaxed);
  }
  std::size_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }

  const ir::Module& base() const { return base_; }
  const sim::MachineConfig& machine() const { return cfg_; }

 private:
  EvalResult measure(const ir::Module& optimized_mod);
  EvalResult simulate(const ir::Module& optimized_mod, std::uint64_t fp);

  static constexpr std::size_t kShards = 16;

  ir::Module base_;
  sim::MachineConfig cfg_;
  std::uint64_t data_fp_;  // ir::data_fingerprint(base_)
  bool cache_enabled_ = true;
  std::array<support::SingleFlightCache<std::uint64_t, EvalResult>, kShards>
      memo_;  // unbounded; striped by fingerprint % kShards
  std::atomic<std::size_t> simulations_{0};
  std::atomic<std::size_t> cache_hits_{0};
};

}  // namespace ilc::search
