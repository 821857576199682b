// serve_tcp: closed-loop tune traffic over loopback TCP against an
// in-process net::Server over a TuningService with a durable kbstore and
// seeding on. A round sends a cold stream of distinct inline modules, then
// a warm stream repeating those keys once every cold answer has arrived.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <unordered_set>

#include "bench.hpp"
#include "client.hpp"
#include "ir/fingerprint.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "layers.hpp"
#include "net/server.hpp"
#include "obs/timer.hpp"
#include "opt/pass.hpp"
#include "sim/interpreter.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace pb {

namespace {

// Cheap suite programs whose global initializers are small enough to be
// written by code (see lower_initializers).
const std::vector<std::string> kPrograms = {"crc32", "sha_lite", "shellsort"};
constexpr unsigned kBudget = 64;           // evaluations per cold search
constexpr unsigned kColdPerProgram = 4;    // per program per round
constexpr unsigned kWarmPerCold = 8;       // warm repeats of each cold key
constexpr std::size_t kMinColdSamples = 100;  // per program, for cold_p90
constexpr std::size_t kMinWarmSamples = 1000; // per program, for warm_p90
// best_speedup is taken over the cold answers of this many first rounds,
// which every timed run reaches to gather its cold samples, so it does not
// depend on how many rounds fit into --seconds.
constexpr std::size_t kSpeedupRounds = kMinColdSamples / kColdPerProgram;

/// The IR text format carries no global initializers, so a suite program
/// sent inline would arrive without its data. This rewrites the program
/// so main() stores every initial value itself: the text then round-trips
/// to a program with the same checksum.
ir::Module lower_initializers(const ir::Module& in) {
  ir::Module m = in;
  const ir::FuncId main_id = m.find_function("main");
  ir::Function& fn = m.functions().at(main_id);
  std::vector<ir::Instr> prologue;
  for (std::size_t g = 0; g < m.globals().size(); ++g) {
    const ir::Global& gl = m.globals()[g];
    if (gl.init.empty()) continue;
    if (gl.kind != ir::GlobalKind::RawArray || gl.elem_is_ptr)
      throw std::runtime_error("cannot lower initializer of " + gl.name);
    ir::Instr base;
    base.op = ir::Opcode::GlobalAddr;
    base.dst = fn.new_reg();
    base.gid = static_cast<ir::GlobalId>(g);
    prologue.push_back(base);
    const ir::Reg value = fn.new_reg();
    for (std::size_t k = 0; k < gl.init.size(); ++k) {
      ir::Instr imm;
      imm.op = ir::Opcode::LoadImm;
      imm.dst = value;
      imm.imm = gl.init[k];
      prologue.push_back(imm);
      ir::Instr st;
      st.op = ir::Opcode::Store;
      st.a = base.dst;
      st.b = value;
      st.imm = static_cast<std::int64_t>(k * gl.elem_width);
      st.width = static_cast<ir::MemWidth>(gl.elem_width);
      prologue.push_back(st);
    }
  }
  auto& entry = fn.blocks.at(0).insts;
  entry.insert(entry.begin(), prologue.begin(), prologue.end());
  return m;
}

struct ColdModule {
  std::size_t program = 0;  // index into kPrograms
  std::string text;
};

/// The cold stream: each module is a lowered program with a seeded random
/// prefix of 0-3 passes applied and a distinct uncalled salt function, so
/// every module fingerprints differently however long the run is. The
/// fingerprints are checked to be distinct before anything is sent.
class ModuleStream {
 public:
  ModuleStream(std::uint64_t seed, Report& report)
      : rng_(mix(seed, 9)), report_(report) {
    const sim::MachineConfig cfg = machine();
    for (const std::string& name : kPrograms) {
      wl::Workload w = wl::make_workload(name);
      Target t{name, lower_initializers(w.module), w.expected_checksum};
      // The lowered text must compute the golden checksum once parsed.
      const ir::Module back = ir::parse_module(ir::to_string(t.module));
      const sim::RunResult r = sim::Simulator(back, cfg).run();
      if (r.ret != w.expected_checksum)
        report.check_failed(name + ": lowered inline module returns " +
                            std::to_string(r.ret));
      t.module = back;
      lowered_.push_back(std::move(t));
    }
  }

  const std::vector<Target>& targets() const { return lowered_; }
  /// Modules generated so far.
  std::uint64_t serial() const { return serial_; }

  ColdModule next(std::size_t program) {
    const auto passes = ilc::opt::sequence_space();
    for (;;) {
      ColdModule c;
      c.program = program;
      ir::Module m = lowered_[program].module;
      const std::uint64_t prefix = rng_.next_below(4);
      for (std::uint64_t k = 0; k < prefix; ++k)
        ilc::opt::run_pass(passes[rng_.next_below(passes.size())], m);
      ir::Function salt;
      salt.name = "salt" + std::to_string(serial_++);
      salt.new_block();
      ir::Instr imm;
      imm.op = ir::Opcode::LoadImm;
      imm.dst = salt.new_reg();
      imm.imm = static_cast<std::int64_t>(serial_);
      ir::Instr ret;
      ret.op = ir::Opcode::Ret;
      ret.a = imm.dst;
      salt.blocks[0].insts = {imm, ret};
      m.add_function(std::move(salt));
      c.text = ilc::ir::to_string(m);
      if (seen_.insert(ir::fingerprint(ir::parse_module(c.text))).second)
        return c;
      report_.check_failed("cold module fingerprint repeated");
    }
  }

 private:
  ilc::support::Rng rng_;
  Report& report_;
  std::vector<Target> lowered_;
  std::unordered_set<std::uint64_t> seen_;
  std::uint64_t serial_ = 0;
};

/// One parsed `ok ...` response line.
struct Response {
  bool ok = false;
  std::string source, config;
  std::uint64_t base = 0, best = 0, sims = 0;
  double speedup = 0;
  std::string raw;
};

Response parse_response(const std::string& line) {
  Response r;
  r.raw = line;
  if (line.rfind("ok ", 0) != 0) return r;
  const auto field = [&](const std::string& key) -> std::string {
    const std::size_t at = line.find(" " + key + "=");
    if (at == std::string::npos) return "";
    const std::size_t from = at + key.size() + 2;
    return line.substr(from, line.find(' ', from) - from);
  };
  const std::size_t q0 = line.find("config=\"");
  const std::size_t q1 = q0 == std::string::npos ? q0 : line.find('"', q0 + 8);
  if (q1 == std::string::npos) return r;
  r.config = line.substr(q0 + 8, q1 - q0 - 8);
  r.source = field("source");
  try {
    r.base = std::stoull(field("base"));
    r.best = std::stoull(field("best"));
    r.sims = std::stoull(field("sims"));
    r.speedup = std::stod(field("speedup"));
  } catch (const std::exception&) {
    return r;
  }
  r.ok = true;
  return r;
}

struct Job {
  std::size_t key = 0;  // index of the cold module
  const std::string* lines = nullptr;
  std::string response;
  double ms = 0;
};

/// A closed loop: each request goes out only after the previous answer
/// arrived.
void run_jobs(LineClient& client, std::vector<Job>& jobs) {
  for (Job& j : jobs) {
    const Clock::time_point t0 = Clock::now();
    try {
      j.response = client.exchange(*j.lines);
    } catch (const std::exception& e) {
      j.response = std::string("client error: ") + e.what();
    }
    j.ms = seconds_since(t0) * 1e3;
  }
}

/// A running server: service, durable store and TCP front-end. The server
/// is destroyed first (it shuts down and drains before the service goes).
struct Stack {
  std::unique_ptr<ilc::svc::TuningService> service;
  std::unique_ptr<ilc::net::Server> server;
};

std::unique_ptr<Stack> start_stack(const Training& training,
                                   const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string seed_kb = dir + "/seed.kb";
  if (!training.base.save(seed_kb))
    throw std::runtime_error("cannot write " + seed_kb);
  ilc::svc::TuningService::Options opts;
  // One closed-loop connection and one service worker. With two of each,
  // two searches ran at once and every timing's run-to-run spread doubled
  // on a shared 4-vCPU host (evals_per_s 6% -> 12% over 10 seeds).
  opts.workers = 1;
  opts.kb_path = dir + "/store";
  opts.seed_kb_path = seed_kb;
  opts.autosave = true;  // every cold result is flushed to the WAL
  auto stack = std::make_unique<Stack>();
  stack->service = std::make_unique<ilc::svc::TuningService>(opts);
  stack->server = std::make_unique<ilc::net::Server>(*stack->service,
                                                     ilc::net::ServerOptions{});
  return stack;
}

struct Round {
  double wall_s = 0;
  std::size_t cold = 0, warm = 0;
  // Read from the program's evaluator counters around the round.
  std::uint64_t simulations = 0, memo_hits = 0;
  std::uint64_t evaluations() const { return simulations + memo_hits; }
};

/// What the measured rounds did. Answers are checked as each round ends
/// and only these aggregates are kept, so memory does not grow with the
/// number of rounds beyond the latency samples.
struct Traffic {
  std::vector<Round> rounds;
  Latencies cold_ms, warm_ms;
  std::vector<double> speedups;  // base / best, first kSpeedupRounds rounds
  std::map<std::string, std::uint64_t> by_source;
  std::vector<std::string> texts;  // the first modules sent, for ir.parse_us

  double measured_s() const {
    double s = 0;
    for (const Round& r : rounds) s += r.wall_s;
    return s;
  }
  bool enough() const {
    return cold_ms.min_samples() >= kMinColdSamples &&
           warm_ms.min_samples() >= kMinWarmSamples;
  }
};

ilc::svc::TuningRequest cold_request(const ColdModule& c, std::uint64_t seed,
                                     std::size_t serial) {
  ilc::svc::TuningRequest req;
  req.program = kPrograms[c.program];
  req.ir_text = c.text;
  req.budget = kBudget;
  req.seeding = true;
  req.seed = mix(seed, 6, serial);
  return req;
}

/// A cold answer re-derived apart from the service: the module parsed
/// from the text sent, run at -O0 and with the answered config on the
/// legacy interpreter.
void check_cold(const ColdModule& module, const Target& target,
                const Response& r, Report& report) {
  if (!r.ok || r.source != "search") {
    ++report.failed;
    report.check_failed("cold " + target.name + ": " + r.raw);
    return;
  }
  sim::MachineConfig legacy = machine();
  legacy.decoded_execution = false;
  try {
    const ir::Module m = ir::parse_module(module.text);
    const sim::RunResult base = sim::Simulator(m, legacy).run();
    ir::Module opt = m;
    ilc::opt::run_sequence(opt, search::sequence_from_string(r.config));
    const sim::RunResult best = sim::Simulator(opt, legacy).run();
    const double speedup =
        static_cast<double>(base.cycles) / static_cast<double>(best.cycles);
    if (base.ret != target.checksum || best.ret != target.checksum ||
        base.cycles != r.base || best.cycles != r.best ||
        std::abs(speedup - r.speedup) > 0.0005 + 1e-9)
      report.check_failed("cold " + target.name + " answer " + r.raw +
                          " disagrees with the legacy interpreter: base " +
                          std::to_string(base.cycles) + " best " +
                          std::to_string(best.cycles) + " checksums " +
                          std::to_string(base.ret) + "/" +
                          std::to_string(best.ret));
  } catch (const std::exception& e) {
    report.check_failed("cold " + target.name + ": oracle trap: " + e.what());
  }
}

void run_round(ModuleStream& stream, LineClient& client, std::uint64_t seed,
               Traffic& t, Report& report) {
  ilc::support::Rng order(mix(seed, 4, t.rounds.size()));
  std::vector<ColdModule> modules;
  std::vector<std::string> lines;
  for (unsigned k = 0; k < kColdPerProgram; ++k)
    for (std::size_t p = 0; p < kPrograms.size(); ++p) {
      modules.push_back(stream.next(p));
      lines.push_back(request_lines(
          cold_request(modules.back(), seed, stream.serial())));
    }
  std::vector<Job> cold(modules.size()), warm;
  for (std::size_t i = 0; i < modules.size(); ++i)
    cold[i] = {i, &lines[i], "", 0};
  for (unsigned r = 0; r < kWarmPerCold; ++r)
    for (std::size_t i = 0; i < modules.size(); ++i)
      warm.push_back({i, &lines[i], "", 0});
  order.shuffle(warm);

  const GlobalCounters g0 = GlobalCounters::now();
  const Clock::time_point start = Clock::now();
  run_jobs(client, cold);
  run_jobs(client, warm);
  const double wall_s = seconds_since(start);
  const GlobalCounters g1 = GlobalCounters::now();
  t.rounds.push_back({wall_s, cold.size(), warm.size(),
                      g1.simulations - g0.simulations,
                      g1.memo_hits - g0.memo_hits});

  // Untimed from here on.
  const std::vector<Target>& targets = stream.targets();
  std::vector<Response> answers;
  std::uint64_t answered_sims = 0;
  for (const Job& j : cold) {
    const ColdModule& m = modules[j.key];
    const Response r = parse_response(j.response);
    ++report.attempted;
    ++t.by_source[r.ok ? r.source : "error"];
    t.cold_ms.add(kPrograms[m.program], j.ms);
    check_cold(m, targets[m.program], r, report);
    if (r.ok && r.best > 0 && t.rounds.size() <= kSpeedupRounds)
      t.speedups.push_back(static_cast<double>(r.base) /
                           static_cast<double>(r.best));
    answered_sims += r.sims;
    answers.push_back(r);
  }
  if (answered_sims != t.rounds.back().simulations)
    report.check_failed("round " + std::to_string(t.rounds.size()) +
                        ": answers report " + std::to_string(answered_sims) +
                        " simulations, the evaluators counted " +
                        std::to_string(t.rounds.back().simulations));
  // A warm answer must repeat the cold answer that stored its key.
  for (const Job& j : warm) {
    const Response r = parse_response(j.response);
    const Response& c = answers[j.key];
    ++report.attempted;
    ++t.by_source[r.ok ? r.source : "error"];
    t.warm_ms.add(kPrograms[modules[j.key].program], j.ms);
    if (!r.ok) {
      ++report.failed;
      report.check_failed("warm: " + r.raw);
    } else if (r.source != "warm" || r.sims != 0 || r.config != c.config ||
               r.best != c.best) {
      report.check_failed("warm answer " + r.raw + " does not repeat " + c.raw);
    }
  }
  for (const ColdModule& m : modules)
    if (t.texts.size() < 60) t.texts.push_back(m.text);
}

void serve_work(const Traffic& t, std::size_t kb_records, Report& report) {
  std::uint64_t cold = 0, warm = 0, sims = 0, hits = 0;
  for (const Round& r : t.rounds) {
    cold += r.cold;
    warm += r.warm;
    sims += r.simulations;
    hits += r.memo_hits;
  }
  report.work("rounds", t.rounds.size());
  report.work("cold_requests", cold);
  report.work("warm_requests", warm);
  report.work("evaluations", sims + hits);
  report.work("simulations", sims);
  report.work("memo_hits", hits);
  report.work("kb_records_written", kb_records);
  for (const auto& [source, n] : t.by_source)
    report.work("source_" + source, n);
}

double median_rate(const std::vector<Round>& rounds, bool evals) {
  std::vector<double> rates;
  for (const Round& r : rounds)
    rates.push_back(
        static_cast<double>(evals ? r.evaluations() : r.cold + r.warm) /
        r.wall_s);
  return median(rates);
}

double median_wall(const std::vector<Round>& rounds, std::size_t from,
                   std::size_t to) {
  std::vector<double> w;
  for (std::size_t i = from; i < to; ++i) w.push_back(rounds[i].wall_s);
  return median(w);
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  // Inputs first (not set-up): the lowered programs and the stream.
  ModuleStream stream(args.seed, report);

  // Set-up: the training period, the store and the server; the first one
  // serves the run. A later one is shut down after it is timed.
  std::vector<double> kb_s, bank_ms;
  Training training;
  std::unique_ptr<Stack> stack;
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  Setups setups(
      [&] {
        const std::string dir =
            args.workdir + "/setup" + std::to_string(kb_s.size());
        const Clock::time_point t0 = Clock::now();
        Training t = train(kPrograms);
        std::unique_ptr<Stack> s = start_stack(t, dir);
        const double took = seconds_since(t0);
        kb_s.push_back(t.kb_build_s);
        bank_ms.push_back(t.seedbank_ms);
        if (!stack) {
          training = std::move(t);
          stack = std::move(s);
        }
        return took;
      },
      seconds);
  ilc::svc::TuningService& service = *stack->service;
  const std::size_t kb_before = service.kb_size();

  LineClient client(stack->server->port());

  // Rounds go on until their own time reaches --seconds (half of it in a
  // traced run) and every program has enough samples for the reported
  // percentiles; --rounds fixes the count instead.
  Traffic traffic;
  while (args.rounds ? traffic.rounds.size() < args.rounds
                     : (traffic.measured_s() < seconds || !traffic.enough())) {
    run_round(stream, client, args.seed, traffic, report);
    setups.between_rounds(traffic.measured_s());
  }
  setups.finish();

  if (!args.trace) {
    report.setup(setups.times());
    report.metric("best_speedup", geomean(traffic.speedups), "ratio");
    report.metric("evals_per_s", median_rate(traffic.rounds, true), "1/s");
    report.metric("tune_rps", median_rate(traffic.rounds, false), "1/s");
    const bool lenient = args.rounds != 0;
    report.latency("cold_p50_ms", traffic.cold_ms, 0.50, lenient);
    report.latency("cold_p90_ms", traffic.cold_ms, 0.90, lenient);
    report.latency("warm_p50_ms", traffic.warm_ms, 0.50, lenient);
    report.latency("warm_p90_ms", traffic.warm_ms, 0.90, lenient);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("rounds=" + std::to_string(traffic.rounds.size()) + " (each " +
                std::to_string(kColdPerProgram * kPrograms.size()) +
                " cold + " +
                std::to_string(kColdPerProgram * kPrograms.size() *
                               kWarmPerCold) +
                " warm requests over one connection)");
    serve_work(traffic, service.kb_size() - kb_before, report);
    return;
  }

  // Traced run: as many rounds again with the program's obs profiling
  // timers on, for the overhead and the work counters.
  const std::size_t plain_rounds = traffic.rounds.size();
  const GlobalCounters g0 = GlobalCounters::now();
  ilc::obs::set_profiling_enabled(true);
  while (traffic.rounds.size() < 2 * plain_rounds)
    run_round(stream, client, args.seed, traffic, report);
  ilc::obs::set_profiling_enabled(false);
  const GlobalCounters g1 = GlobalCounters::now();
  const double untraced = median_wall(traffic.rounds, 0, plain_rounds);
  const double traced =
      median_wall(traffic.rounds, plain_rounds, traffic.rounds.size());
  std::printf("tracing overhead: untraced %.4f s/round, traced %.4f s/round "
              "(%+.2f%%) over %zu rounds each\n",
              untraced, traced, 100.0 * (traced / untraced - 1.0),
              plain_rounds);

  SearchCounters c;
  for (std::size_t r = plain_rounds; r < traffic.rounds.size(); ++r) {
    c.evaluations += traffic.rounds[r].evaluations();
    c.simulations += traffic.rounds[r].simulations;
  }
  c.estimator_skipped = g1.estimator_skipped - g0.estimator_skipped;
  c.program_cache_hits = g1.program_cache_hits - g0.program_cache_hits;
  c.program_cache_misses = g1.program_cache_misses - g0.program_cache_misses;
  counter_metrics(c, report);

  eval_layers(stream.targets(), training.bank, args.seed, 150, kBudget, report);
  setup_layers(kb_s, bank_ms, stream.targets(), report);
  parse_layer(traffic.texts, report);
  persist_layer(args.workdir + "/persist", report);

  // Fresh cold modules, tuned in-process on the same service.
  std::vector<ilc::svc::TuningRequest> cold;
  for (unsigned k = 0; k < 4; ++k)
    for (std::size_t p = 0; p < kPrograms.size(); ++p)
      cold.push_back(cold_request(stream.next(p), args.seed, stream.serial()));
  service_layers(service, stack->server->port(), cold, 20, report);
  serve_work(traffic, service.kb_size() - kb_before, report);
}

}  // namespace pb
