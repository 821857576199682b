#include "layers.hpp"

#include <array>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "client.hpp"
#include "features/features.hpp"
#include "ir/fingerprint.hpp"
#include "ir/parser.hpp"
#include "kbstore/store.hpp"
#include "obs/metrics.hpp"
#include "opt/pass.hpp"
#include "search/strategies.hpp"
#include "sim/interpreter.hpp"
#include "sim/program_cache.hpp"
#include "svc/protocol.hpp"

namespace pb {

namespace {

double us_since(Clock::time_point t) { return seconds_since(t) * 1e6; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<std::vector<ilc::opt::PassId>> replay_candidates(
    const Target& t, const search::SeedBank& bank, std::uint64_t seed,
    std::size_t index, unsigned n) {
  const search::SequenceSpace space;
  const search::Seeding seeding =
      bank.seeding_for(ilc::feat::extract_static(t.module));
  std::vector<std::vector<ilc::opt::PassId>> out;
  for (const auto& s : seeding.seeds)
    if (out.size() < n && space.valid(s)) out.push_back(s);
  ilc::support::Rng rng(mix(seed, 0x1a7e5, index));
  while (out.size() < n) out.push_back(space.sample(rng));
  return out;
}

}  // namespace

GlobalCounters GlobalCounters::now() {
  ilc::obs::Registry& reg = ilc::obs::Registry::instance();
  GlobalCounters g;
  g.simulations = reg.counter("search.simulations").value();
  g.memo_hits = reg.counter("search.eval_cache.hits").value();
  g.estimator_skipped = reg.counter("search.estimator.skipped").value();
  g.program_cache_hits = sim::ProgramCache::instance().hits();
  g.program_cache_misses = sim::ProgramCache::instance().misses();
  return g;
}

void counter_metrics(const SearchCounters& c, Report& report) {
  report.metric("search.memo_hit_ratio",
                ratio(static_cast<double>(c.evaluations - c.simulations),
                      static_cast<double>(c.evaluations)),
                "ratio");
  report.metric("search.estimator_skip_ratio",
                ratio(static_cast<double>(c.estimator_skipped),
                      static_cast<double>(c.estimator_skipped + c.evaluations)),
                "ratio");
  report.metric("sim.program_cache_hit_ratio",
                ratio(static_cast<double>(c.program_cache_hits),
                      static_cast<double>(c.program_cache_hits +
                                          c.program_cache_misses)),
                "ratio");
}

void eval_layers(const std::vector<Target>& targets,
                 const search::SeedBank& bank, std::uint64_t seed,
                 unsigned candidates, unsigned budget, Report& report) {
  using ilc::opt::PassId;
  const search::SequenceSpace space;
  const sim::MachineConfig cfg = machine();

  constexpr unsigned kPasses = ilc::opt::kSequenceSpacePasses;
  std::array<double, kPasses> pass_us{};
  std::array<std::uint64_t, kPasses> pass_calls{};
  std::uint64_t changed = 0, pass_runs = 0, instrs_out = 0, executed = 0;
  double copy_us = 0, pipeline_us = 0, fp_us = 0, decode_us = 0, run_us = 0;
  double eval_us = 0;
  std::uint64_t evals = 0, eval_calls = 0;

  std::printf("cold evaluation split (%u sequences per program, each "
              "evaluated once, cold):\n", candidates);
  std::printf("  %-10s %9s %6s %7s %8s %7s %6s\n", "program", "eval_us",
              "copy", "passes", "fingerp", "decode", "sim");

  ir::Module scratch;
  for (std::size_t ti = 0; ti < targets.size(); ++ti) {
    const Target& t = targets[ti];
    const auto cands = replay_candidates(t, bank, seed, ti, candidates);
    double c_copy = 0, c_pass = 0, c_fp = 0, c_dec = 0, c_run = 0;
    for (const auto& seq : cands) {
      ++report.attempted;
      Clock::time_point t0 = Clock::now();
      scratch = t.module;
      c_copy += us_since(t0);
      for (PassId id : seq) {
        t0 = Clock::now();
        const bool ch = ilc::opt::run_pass(id, scratch);
        const double dt = us_since(t0);
        const unsigned p = static_cast<unsigned>(id);
        pass_us[p] += dt;
        ++pass_calls[p];
        c_pass += dt;
        changed += ch ? 1 : 0;
        ++pass_runs;
      }
      instrs_out += scratch.code_size();
      t0 = Clock::now();
      static_cast<void>(ir::fingerprint(scratch));
      c_fp += us_since(t0);
      t0 = Clock::now();
      std::shared_ptr<const sim::DecodedProgram> decoded =
          sim::decode_program(scratch);
      c_dec += us_since(t0);
      try {
        t0 = Clock::now();
        sim::Simulator s(scratch, cfg, std::move(decoded));
        const sim::RunResult r = s.run();
        c_run += us_since(t0);
        executed += r.instructions;
        if (r.ret != t.checksum)
          report.check_failed(t.name + ": " + search::sequence_to_string(seq) +
                              " returned " + std::to_string(r.ret));
      } catch (const std::exception& e) {
        ++report.failed;
        report.check_failed(t.name + ": trap: " + e.what());
      }
    }
    const double total = c_copy + c_pass + c_fp + c_dec + c_run;
    const double n = static_cast<double>(cands.size());
    std::printf("  %-10s %9.1f %5.1f%% %6.1f%% %7.1f%% %6.1f%% %5.1f%%\n",
                t.name.c_str(), total / n, 100 * c_copy / total,
                100 * c_pass / total, 100 * c_fp / total, 100 * c_dec / total,
                100 * c_run / total);
    copy_us += c_copy;
    pipeline_us += c_pass;
    fp_us += c_fp;
    decode_us += c_dec;
    run_us += c_run;
    evals += cands.size();

    // The same candidates through the public evaluator, as a search
    // issues them: memo and program cache start empty.
    sim::ProgramCache::instance().clear();
    search::Evaluator ev(t.module, cfg);
    const Clock::time_point t0 = Clock::now();
    for (const auto& seq : cands) ev.eval_sequence(seq);
    eval_us += us_since(t0);
    eval_calls += cands.size();
  }

  // Strategy overhead: each search strategy against a one-instruction
  // program, whose evaluations all cost the same, minus as many direct
  // evaluator calls on it.
  const ir::Module tiny = ir::parse_module(
      "module tiny ptr=8\nfunc @main(0) regs=1 frame=0 {\nbb0:\n"
      "  r0 = imm 0\n  ret r0\n}\n");
  double strategy_us = 0;
  std::uint64_t strategy_evals = 0;
  for (std::size_t ti = 0; ti < targets.size(); ++ti) {
    const search::Seeding seeding =
        bank.seeding_for(ilc::feat::extract_static(targets[ti].module));
    ilc::support::Rng rng(mix(seed, 0x57a7, ti));
    search::Evaluator direct(tiny, cfg);
    std::vector<std::vector<PassId>> samples(budget);
    for (auto& s : samples) s = space.sample(rng);
    direct.eval_sequence(samples[0]);
    Clock::time_point t0 = Clock::now();
    for (const auto& s : samples) direct.eval_sequence(s);
    const double direct_us = us_since(t0);

    search::Evaluator e1(tiny, cfg);
    t0 = Clock::now();
    search::seeded_random_search(e1, space, seeding, rng, budget);
    strategy_us += us_since(t0) - direct_us;

    search::Evaluator e2(tiny, cfg);
    search::GaParams ga;
    ga.seeds = seeding.seeds;
    ga.estimator = seeding.estimator;
    t0 = Clock::now();
    search::genetic_search(e2, space, rng, budget, search::Objective::Cycles,
                           ga);
    strategy_us += us_since(t0) - direct_us;
    strategy_evals += 2 * budget;
  }

  const double n = static_cast<double>(evals);
  report.metric("ir.copy_us", copy_us / n, "us");
  report.metric("ir.fingerprint_us", fp_us / n, "us");
  report.metric("opt.pipeline_us", pipeline_us / n, "us");
  for (unsigned p = 0; p < kPasses; ++p)
    report.metric(std::string("opt.pass_us.") +
                      ilc::opt::pass_name(static_cast<PassId>(p)),
                  ratio(pass_us[p], static_cast<double>(pass_calls[p])), "us");
  report.metric("opt.changed_ratio",
                ratio(static_cast<double>(changed),
                      static_cast<double>(pass_runs)),
                "ratio");
  report.metric("opt.instrs_out", static_cast<double>(instrs_out) / n,
                "instrs");
  report.metric("search.eval_us", eval_us / static_cast<double>(eval_calls),
                "us");
  report.metric("search.strategy_us",
                strategy_us / static_cast<double>(strategy_evals), "us");
  report.metric("sim.decode_us", decode_us / n, "us");
  report.metric("sim.run_us", run_us / n, "us");
  report.metric("sim.minstr_per_s",
                static_cast<double>(executed) / run_us, "Minstr/s");
}

void setup_layers(const std::vector<double>& kb_build_s,
                  const std::vector<double>& seedbank_ms,
                  const std::vector<Target>& targets, Report& report) {
  report.metric("controller.kb_build_s", median(kb_build_s), "s");
  report.metric("search.seedbank_build_ms", median(seedbank_ms), "ms");
  constexpr int kReps = 200;
  double us = 0;
  for (const Target& t : targets) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) ilc::feat::extract_static(t.module);
    us += us_since(t0);
  }
  report.metric("features.static_us",
                us / static_cast<double>(kReps * targets.size()), "us");
}

void parse_layer(const std::vector<std::string>& texts, Report& report) {
  constexpr int kReps = 20;
  std::uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kReps; ++i)
    for (const std::string& text : texts)
      sink += ir::parse_module(text).functions().size();
  const double us = us_since(t0);
  if (sink == 0) report.check_failed("ir.parse_us: parsed no functions");
  report.metric("ir.parse_us",
                us / static_cast<double>(kReps * texts.size()), "us");
}

void persist_layer(const std::string& dir, Report& report) {
  ilc::kbstore::Options opts;
  opts.flush = ilc::kbstore::Options::Flush::Manual;
  opts.background_compaction = false;
  std::filesystem::remove_all(dir);
  auto store = ilc::kbstore::Store::open(dir, opts);
  if (!store) {
    report.check_failed("kbstore: cannot open a store in " + dir);
    report.metric("kbstore.persist_us", 0, "us");
    return;
  }
  constexpr int kRecords = 400;
  std::vector<double> samples;
  for (int i = 0; i < kRecords; ++i) {
    // The two records TuningService persists per cold result.
    kb::ExperimentRecord best;
    best.program = "fp:" + std::to_string(mix(7, 0x9e75, i)) + "+cycles";
    best.machine = machine().name;
    best.kind = "svc-best";
    best.config = "constprop,licm,unroll4,dce,schedule";
    best.cycles = 40000 + static_cast<std::uint64_t>(i);
    kb::ExperimentRecord base = best;
    base.kind = "svc-base";
    base.config.clear();
    base.cycles = 50000;
    const Clock::time_point t0 = Clock::now();
    store->upsert(std::move(best));
    store->upsert(std::move(base));
    const bool ok = store->sync();
    samples.push_back(us_since(t0));
    if (!ok) report.check_failed("kbstore: sync failed");
  }
  if (store->size() != 2 * kRecords)
    report.check_failed("kbstore: store holds " +
                        std::to_string(store->size()) + " records, expected " +
                        std::to_string(2 * kRecords));
  report.metric("kbstore.persist_us", median(samples), "us");
}

std::string request_lines(const ilc::svc::TuningRequest& req) {
  std::ostringstream os;
  std::string name = req.program;
  if (!req.ir_text.empty()) {
    std::size_t lines = 0;
    for (char c : req.ir_text) lines += c == '\n';
    name = "m";
    os << "module m " << lines << "\n" << req.ir_text;
  }
  os << "tune " << name << " budget=" << req.budget
     << " objective="
     << (req.objective == search::Objective::CodeSize ? "size" : "cycles")
     << " strategy="
     << (req.strategy == ilc::svc::Strategy::Genetic ? "genetic" : "random")
     << " seeding=" << (req.seeding ? "on" : "off") << " seed=" << req.seed
     << "\n";
  return os.str();
}

void service_layers(ilc::svc::TuningService& service, std::uint16_t port,
                    const std::vector<ilc::svc::TuningRequest>& cold,
                    unsigned warm_repeats, Report& report) {
  using ilc::svc::Source;
  std::vector<double> cold_ms, warm_us, tcp_us;
  for (const auto& req : cold) {
    ++report.attempted;
    const Clock::time_point t0 = Clock::now();
    const ilc::svc::TuningResponse r = service.tune(req);
    cold_ms.push_back(seconds_since(t0) * 1e3);
    if (!r.ok || r.source != Source::Search) {
      ++report.failed;
      report.check_failed("svc cold tune of " + req.program + ": " +
                          ilc::svc::format_response(r));
    }
  }
  for (unsigned rep = 0; rep < warm_repeats; ++rep)
    for (const auto& req : cold) {
      ++report.attempted;
      const Clock::time_point t0 = Clock::now();
      const ilc::svc::TuningResponse r = service.tune(req);
      warm_us.push_back(us_since(t0));
      if (!r.ok || r.source != Source::WarmCache || r.simulations != 0) {
        ++report.failed;
        report.check_failed("svc warm tune of " + req.program + ": " +
                            ilc::svc::format_response(r));
      }
    }
  LineClient client(port);
  for (unsigned rep = 0; rep < warm_repeats; ++rep)
    for (const auto& req : cold) {
      ++report.attempted;
      const std::string lines = request_lines(req);
      const Clock::time_point t0 = Clock::now();
      const std::string resp = client.exchange(lines);
      tcp_us.push_back(us_since(t0));
      if (resp.rfind("ok ", 0) != 0 ||
          resp.find(" source=warm ") == std::string::npos) {
        ++report.failed;
        report.check_failed("net warm tune of " + req.program + ": " + resp);
      }
    }
  report.metric("svc.cold_tune_ms", median(cold_ms), "ms");
  report.metric("svc.warm_tune_us", median(warm_us), "us");
  report.metric("net.overhead_us", median(tcp_us) - median(warm_us), "us");
}

}  // namespace pb
