// search_passbound / search_simbound: KB-seeded random search and the
// seeded genetic search, each at a fixed budget with one evaluation worker,
// over the workload's programs. A round runs every (program, strategy)
// search once on fresh evaluators with the decoded-program cache emptied.
// Rounds cycle through kStreams seeded RNG streams, so a run averages over
// several search instances, and every round must reproduce the round one
// cycle earlier exactly.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "features/features.hpp"
#include "ir/printer.hpp"
#include "layers.hpp"
#include "net/server.hpp"
#include "obs/timer.hpp"
#include "opt/pass.hpp"
#include "search/strategies.hpp"
#include "sim/interpreter.hpp"
#include "sim/program_cache.hpp"

namespace pb {

namespace {

constexpr unsigned kBudget = 100;      // evaluations per search
// RNG streams the rounds cycle through. One fixed stream per run made
// evals_per_s depend on how much memoizable work that one seed drew: the
// same seed read alike in two sets of runs while seeds differed by 13%.
constexpr std::size_t kStreams = 8;
constexpr unsigned kProbeCold = 8;     // cold evaluations per program per round
constexpr unsigned kProbeWarm = 10;    // warm repeats of each
constexpr std::size_t kMinColdSamples = 200;   // per program, for cold_p90
constexpr std::size_t kMinWarmSamples = 2000;  // per program, for warm_p90
constexpr unsigned kReplay = 150;      // traced replay sequences per program
constexpr unsigned kServiceBudget = 64;

using ilc::opt::PassId;

struct Program {
  Target target;
  search::Seeding seeding;
  std::uint64_t base_cycles = 0;  // legacy-interpreter -O0 cycles
};

struct Outcome {
  std::uint64_t best_metric = 0;
  std::vector<PassId> best_seq;
  unsigned evaluations = 0;
  std::size_t simulations = 0;
  std::size_t memo_hits = 0;
  bool threw = false;
  bool operator==(const Outcome&) const = default;
};

struct Round {
  double wall_s = 0;
  std::vector<Outcome> outcomes;  // program-major: random, genetic
  std::vector<search::SearchTrace> traces;
};

sim::MachineConfig legacy_machine() {
  sim::MachineConfig cfg = machine();
  cfg.decoded_execution = false;
  return cfg;
}

Round run_round(const std::vector<Program>& programs, std::uint64_t seed,
                std::size_t stream) {
  const search::SequenceSpace space;
  const sim::MachineConfig cfg = machine();
  sim::ProgramCache::instance().clear();
  Round round;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const Program& p = programs[i];
    for (int strategy = 0; strategy < 2; ++strategy) {
      search::Evaluator ev(p.target.module, cfg);
      ilc::support::Rng rng(mix(seed, 1 + strategy, (stream << 8) | i));
      Outcome o;
      search::SearchTrace trace;
      try {
        if (strategy == 0) {
          trace = search::seeded_random_search(ev, space, p.seeding, rng,
                                               kBudget);
        } else {
          search::GaParams ga;
          ga.seeds = p.seeding.seeds;
          ga.estimator = p.seeding.estimator;
          trace = search::genetic_search(ev, space, rng, kBudget,
                                         search::Objective::Cycles, ga);
        }
      } catch (const std::exception&) {
        o.threw = true;
      }
      o.best_metric = trace.best_metric;
      o.best_seq = trace.best_seq;
      o.evaluations = trace.evaluations;
      o.simulations = ev.simulations();
      o.memo_hits = ev.cache_hits();
      round.outcomes.push_back(o);
      round.traces.push_back(std::move(trace));
    }
  }
  round.wall_s = seconds_since(start);
  return round;
}

/// Checks a round's searches against computations made apart from the
/// search path: the best sequence re-applied to a fresh copy and run on
/// the legacy interpreter, and the shape of best_so_far.
void check_round(const std::vector<Program>& programs, const Round& round,
                 Report& report) {
  const sim::MachineConfig legacy = legacy_machine();
  for (std::size_t k = 0; k < round.outcomes.size(); ++k) {
    const Program& p = programs[k / 2];
    const Outcome& o = round.outcomes[k];
    const search::SearchTrace& tr = round.traces[k];
    const std::string what =
        p.target.name + (k % 2 ? " genetic" : " seeded-random");
    if (o.threw) continue;  // counted as failed operations
    if (tr.evaluations != kBudget || tr.best_so_far.size() != tr.evaluations)
      report.check_failed(what + ": " + std::to_string(tr.best_so_far.size()) +
                          " best_so_far entries for " +
                          std::to_string(tr.evaluations) + " evaluations");
    for (std::size_t e = 1; e < tr.best_so_far.size(); ++e)
      if (tr.best_so_far[e] > tr.best_so_far[e - 1]) {
        report.check_failed(what + ": best_so_far increases at " +
                            std::to_string(e));
        break;
      }
    if (tr.best_so_far.empty() || tr.best_so_far.back() != tr.best_metric)
      report.check_failed(what + ": best_so_far does not end at best_metric");
    ir::Module m = p.target.module;
    ilc::opt::run_sequence(m, tr.best_seq);
    try {
      const sim::RunResult r = sim::Simulator(m, legacy).run();
      if (r.ret != p.target.checksum)
        report.check_failed(what + ": best sequence returns " +
                            std::to_string(r.ret) + ", golden " +
                            std::to_string(p.target.checksum));
      if (r.cycles != tr.best_metric)
        report.check_failed(what + ": best sequence runs " +
                            std::to_string(r.cycles) +
                            " cycles on the legacy interpreter, search said " +
                            std::to_string(tr.best_metric));
    } catch (const std::exception& e) {
      report.check_failed(what + ": best sequence traps: " + e.what());
    }
  }
}

/// Cold and warm evaluation latency, sampled after every round so the
/// samples span the whole run: each sample sequence is evaluated once on a
/// fresh evaluator with the decoded-program cache empty (cold), then again
/// from that evaluator's memo (warm).
struct Probe {
  Latencies cold, warm;
};

bool enough(const Probe& probe) {
  return probe.cold.min_samples() >= kMinColdSamples &&
         probe.warm.min_samples() >= kMinWarmSamples;
}

void probe_round(const std::vector<Program>& programs, std::uint64_t seed,
                 std::size_t round, Probe& probe, Report& report) {
  const search::SequenceSpace space;
  const sim::MachineConfig cfg = machine();
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const Program& p = programs[i];
    ilc::support::Rng rng(mix(seed, 3, (round << 8) | i));
    std::vector<std::vector<PassId>> seqs(kProbeCold);
    for (auto& s : seqs) s = space.sample(rng);
    std::vector<std::unique_ptr<search::Evaluator>> evs;
    std::vector<std::uint64_t> cycles;
    for (const auto& s : seqs) {
      sim::ProgramCache::instance().clear();
      evs.push_back(std::make_unique<search::Evaluator>(p.target.module, cfg));
      ++report.attempted;
      try {
        const Clock::time_point t0 = Clock::now();
        cycles.push_back(evs.back()->eval_sequence(s).cycles);
        probe.cold.add(p.target.name, seconds_since(t0) * 1e3);
      } catch (const std::exception& e) {
        ++report.failed;
        cycles.push_back(0);
      }
    }
    for (unsigned rep = 0; rep < kProbeWarm; ++rep)
      for (std::size_t k = 0; k < seqs.size(); ++k) {
        if (cycles[k] == 0) continue;
        ++report.attempted;
        const Clock::time_point t0 = Clock::now();
        const search::EvalResult r = evs[k]->eval_sequence(seqs[k]);
        probe.warm.add(p.target.name, seconds_since(t0) * 1e3);
        if (r.cycles != cycles[k] || evs[k]->simulations() != 1)
          report.check_failed(p.target.name + ": warm evaluation of " +
                              search::sequence_to_string(seqs[k]) +
                              " differs from its cold evaluation");
      }
  }
}

/// Runs rounds until their own time reaches `seconds` and `probe`, when
/// given, holds enough samples (or `fixed` rounds when nonzero). The first
/// cycle of streams is checked; every later round must reproduce the
/// round one cycle earlier. `setups`, when given, times its set-ups
/// between rounds.
std::vector<Round> run_rounds(const std::vector<Program>& programs,
                              const Args& args, double seconds, unsigned fixed,
                              Probe* probe, Setups* setups, Report& report) {
  std::vector<Round> rounds;
  double measured = 0;
  while (fixed ? rounds.size() < fixed
               : (rounds.size() < kStreams || measured < seconds ||
                  (probe && !enough(*probe)))) {
    const std::size_t n = rounds.size();
    Round r = run_round(programs, args.seed, n % kStreams);
    measured += r.wall_s;
    if (probe) probe_round(programs, args.seed, n, *probe, report);
    for (const Outcome& o : r.outcomes) {
      report.attempted += kBudget;
      if (o.threw) report.failed += kBudget;
    }
    if (n < kStreams) {
      check_round(programs, r, report);
    } else if (r.outcomes != rounds[n - kStreams].outcomes) {
      report.check_failed("round " + std::to_string(n + 1) +
                          " did different work than round " +
                          std::to_string(n + 1 - kStreams));
    }
    r.traces.clear();
    rounds.push_back(std::move(r));
    if (setups) setups->between_rounds(measured);
  }
  return rounds;
}

void search_work(const std::vector<Round>& rounds, Report& report) {
  std::uint64_t searches = 0, evals = 0, sims = 0, hits = 0;
  for (const Round& r : rounds)
    for (const Outcome& o : r.outcomes) {
      ++searches;
      evals += o.evaluations;
      sims += o.simulations;
      hits += o.memo_hits;
    }
  report.work("rounds", rounds.size());
  report.work("searches", searches);
  report.work("evaluations", evals);
  report.work("simulations", sims);
  report.work("memo_hits", hits);
  report.work("kb_records_written", 0);
}

/// Geomean over programs and the first cycle of streams of -O0 cycles /
/// the better of the program's two searches.
double best_speedup(const std::vector<Program>& programs,
                    const std::vector<Round>& rounds) {
  std::vector<double> ratios;
  for (std::size_t k = 0; k < rounds.size() && k < kStreams; ++k)
    for (std::size_t i = 0; i < programs.size(); ++i) {
      const Round& r = rounds[k];
      const std::uint64_t best = std::min(r.outcomes[2 * i].best_metric,
                                          r.outcomes[2 * i + 1].best_metric);
      ratios.push_back(static_cast<double>(programs[i].base_cycles) /
                       static_cast<double>(best));
    }
  return geomean(ratios);
}

/// Median over rounds of `per_round` / round time, noting the within-run
/// spread of the per-round rates.
double round_rate(const std::vector<Round>& rounds, double per_round,
                  const std::string& name, Report& report) {
  std::vector<double> rates;
  for (const Round& r : rounds) rates.push_back(per_round / r.wall_s);
  char line[160];
  std::snprintf(line, sizeof line,
                "%s: median of %zu rounds (p10 %.1f, p90 %.1f)", name.c_str(),
                rates.size(), quantile(rates, 0.1), quantile(rates, 0.9));
  report.note(line);
  return median(rates);
}

double median_wall(const std::vector<Round>& rounds) {
  std::vector<double> w;
  for (const Round& r : rounds) w.push_back(r.wall_s);
  return median(w);
}

}  // namespace

void run_search(const Args& args, const std::vector<std::string>& names,
                Report& report) {
  // Set-up: the training period; the first one is kept.
  std::vector<double> kb_s, bank_ms;
  std::optional<Training> training;
  Setups setups(
      [&] {
        const Clock::time_point t0 = Clock::now();
        Training t = train(names);
        const double took = seconds_since(t0);
        kb_s.push_back(t.kb_build_s);
        bank_ms.push_back(t.seedbank_ms);
        if (!training) training = std::move(t);
        return took;
      },
      args.seconds);

  std::vector<Program> programs;
  const sim::MachineConfig legacy = legacy_machine();
  for (const std::string& name : names) {
    wl::Workload w = wl::make_workload(name);
    Program p;
    p.target = {w.name, w.module, w.expected_checksum};
    p.seeding = training->bank.seeding_for(ilc::feat::extract_static(w.module));
    const sim::RunResult r = sim::Simulator(w.module, legacy).run();
    if (r.ret != w.expected_checksum)
      report.check_failed(name + ": -O0 returns " + std::to_string(r.ret));
    p.base_cycles = r.cycles;
    programs.push_back(std::move(p));
  }

  if (!args.trace) {
    Probe probe;
    const std::vector<Round> rounds =
        run_rounds(programs, args, args.seconds, args.rounds, &probe, &setups,
                   report);
    setups.finish();
    const double searches = static_cast<double>(2 * programs.size());
    report.setup(setups.times());
    report.metric("best_speedup", best_speedup(programs, rounds), "ratio");
    report.metric("evals_per_s",
                  round_rate(rounds, searches * kBudget, "evals_per_s", report),
                  "1/s");
    report.metric("tune_rps",
                  round_rate(rounds, searches, "tune_rps", report), "1/s");
    const bool lenient = args.rounds != 0;
    report.latency("cold_p50_ms", probe.cold, 0.50, lenient);
    report.latency("cold_p90_ms", probe.cold, 0.90, lenient);
    report.latency("warm_p50_ms", probe.warm, 0.50, lenient);
    report.latency("warm_p90_ms", probe.warm, 0.90, lenient);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("rounds=" + std::to_string(rounds.size()) +
                " (each " + std::to_string(2 * programs.size()) +
                " searches of " + std::to_string(kBudget) + " evaluations)");
    search_work(rounds, report);
    return;
  }

  // Traced run: the same rounds untraced, then with the program's obs
  // profiling timers on, for the tracing overhead and the work counters.
  setups.finish();
  const double half = args.seconds / 2;
  const std::vector<Round> plain =
      run_rounds(programs, args, half, args.rounds, nullptr, nullptr, report);
  const GlobalCounters g0 = GlobalCounters::now();
  ilc::obs::set_profiling_enabled(true);
  const std::vector<Round> traced = run_rounds(
      programs, args, 0, static_cast<unsigned>(plain.size()), nullptr, nullptr,
      report);
  ilc::obs::set_profiling_enabled(false);
  const GlobalCounters g1 = GlobalCounters::now();
  std::printf("tracing overhead: untraced %.4f s/round, traced %.4f s/round "
              "(%+.2f%%) over %zu rounds each\n",
              median_wall(plain), median_wall(traced),
              100.0 * (median_wall(traced) / median_wall(plain) - 1.0),
              plain.size());

  SearchCounters c;
  for (const Round& r : traced)
    for (const Outcome& o : r.outcomes) {
      c.evaluations += o.evaluations;
      c.simulations += o.simulations;
    }
  c.estimator_skipped = g1.estimator_skipped - g0.estimator_skipped;
  c.program_cache_hits = g1.program_cache_hits - g0.program_cache_hits;
  c.program_cache_misses = g1.program_cache_misses - g0.program_cache_misses;
  counter_metrics(c, report);

  std::vector<Target> targets;
  std::vector<std::string> texts;
  for (const Program& p : programs) {
    targets.push_back(p.target);
    texts.push_back(ilc::ir::to_string(p.target.module));
  }
  eval_layers(targets, training->bank, args.seed, kReplay, kBudget, report);
  setup_layers(kb_s, bank_ms, targets, report);
  parse_layer(texts, report);
  persist_layer(args.workdir + "/persist", report);

  // The serving layers on this workload's programs, requested by name.
  const std::string seed_kb = args.workdir + "/seed.kb";
  if (!training->base.save(seed_kb))
    report.check_failed("cannot write " + seed_kb);
  ilc::svc::TuningService::Options opts;
  opts.workers = 1;
  opts.kb_path = args.workdir + "/svc";
  std::filesystem::remove_all(opts.kb_path);
  opts.seed_kb_path = seed_kb;
  ilc::svc::TuningService service(opts);
  ilc::net::Server server(service, ilc::net::ServerOptions{});
  std::vector<ilc::svc::TuningRequest> cold;
  for (std::size_t i = 0; i < programs.size(); ++i)
    for (search::Objective obj :
         {search::Objective::Cycles, search::Objective::CodeSize}) {
      ilc::svc::TuningRequest req;
      req.program = programs[i].target.name;
      req.budget = kServiceBudget;
      req.objective = obj;
      req.seeding = true;
      req.seed = mix(args.seed, 5, i);
      cold.push_back(req);
    }
  service_layers(service, server.port(), cold, 20, report);
  search_work(traced, report);
}

}  // namespace pb
