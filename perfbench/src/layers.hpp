// The traced run's per-layer probes. Each one times calls into a module's
// public entry points from the benchmark's own code, on the workload's own
// programs or requests, so the program needs no tracing of its own.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ir/module.hpp"
#include "svc/service.hpp"

namespace pb {

/// A program the workload tunes: the module the searches see and the
/// checksum its main() must return under every pass sequence.
struct Target {
  std::string name;
  ir::Module module;
  std::int64_t checksum = 0;
};

/// Work the real searches of a traced run did, read from the program's
/// own counters (Evaluator, ProgramCache, the obs registry).
struct SearchCounters {
  std::uint64_t evaluations = 0;
  std::uint64_t simulations = 0;
  std::uint64_t estimator_skipped = 0;
  std::uint64_t program_cache_hits = 0;
  std::uint64_t program_cache_misses = 0;
};

/// Snapshot of the process-wide counters SearchCounters differences.
struct GlobalCounters {
  std::uint64_t simulations = 0;  // Evaluator simulations, all evaluators
  std::uint64_t memo_hits = 0;    // Evaluator memo hits, all evaluators
  std::uint64_t estimator_skipped = 0;
  std::uint64_t program_cache_hits = 0;
  std::uint64_t program_cache_misses = 0;
  static GlobalCounters now();
};

/// search.memo_hit_ratio, search.estimator_skip_ratio,
/// sim.program_cache_hit_ratio.
void counter_metrics(const SearchCounters& c, Report& report);

/// Replays `candidates` sequences per target (its cluster seeds, then
/// uniform samples) through copy -> each pass -> fingerprint -> decode ->
/// simulate, one cold evaluation each, then once more through a fresh
/// Evaluator. Adds the ir/opt/sim timing metrics, search.eval_us and
/// search.strategy_us, and prints the cold-evaluation split per target.
void eval_layers(const std::vector<Target>& targets,
                 const search::SeedBank& bank, std::uint64_t seed,
                 unsigned candidates, unsigned budget, Report& report);

/// controller.kb_build_s, search.seedbank_build_ms (medians over the
/// run's set-ups) and features.static_us over the targets.
void setup_layers(const std::vector<double>& kb_build_s,
                  const std::vector<double>& seedbank_ms,
                  const std::vector<Target>& targets, Report& report);

/// ir.parse_us: ir::parse_module over the given texts.
void parse_layer(const std::vector<std::string>& texts, Report& report);

/// kbstore.persist_us: upsert of one service result (best + baseline
/// record) and the flush that makes it durable, in a fresh store.
void persist_layer(const std::string& dir, Report& report);

/// svc.cold_tune_ms and svc.warm_tune_us through TuningService::tune
/// in-process, then net.overhead_us: a warm round trip over TCP to the
/// server on `port` minus the in-process warm tune. `cold` must all miss
/// the service's cache; each is then repeated `warm_repeats` times.
void service_layers(ilc::svc::TuningService& service, std::uint16_t port,
                    const std::vector<ilc::svc::TuningRequest>& cold,
                    unsigned warm_repeats, Report& report);

/// One protocol exchange: the request lines for `req` (inline module
/// lines first when it carries IR text).
std::string request_lines(const ilc::svc::TuningRequest& req);

}  // namespace pb
