// Shared vocabulary of the end-to-end benchmark: command line, clocks,
// summary statistics, the run report (metrics, work counts, operation
// accounting, failed checks), and the set-up every workload pays.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kb/knowledge_base.hpp"
#include "search/seedbank.hpp"
#include "search/space.hpp"
#include "sim/machine.hpp"
#include "workloads/workloads.hpp"

namespace pb {

namespace ir = ilc::ir;
namespace kb = ilc::kb;
namespace search = ilc::search;
namespace sim = ilc::sim;
namespace wl = ilc::wl;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed number of measured rounds instead of a time bound (the
  /// work-count self-test); 0 = run rounds until `seconds` elapse.
  unsigned rounds = 0;
  /// Scratch directory for stores and seed KB files (created, then
  /// removed by the caller).
  std::string workdir = ".";
};

/// Independent stream seed for (run seed, purpose, index).
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// Linear-interpolated quantile, q in [0, 1]; the vector is sorted.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

/// Latency samples grouped by program. A percentile is taken per program
/// and the programs' values are combined by geometric mean, so every
/// program weighs the same and a percentile never lands on the boundary
/// between two programs' latency modes.
class Latencies {
 public:
  void add(const std::string& program, double ms) {
    by_program_[program].push_back(ms);
  }
  double stratified(double q) const;
  /// Fewest samples any program has (0 when empty).
  std::size_t min_samples() const;
  /// "program=n" list for the report.
  std::string counts() const;

 private:
  std::map<std::string, std::vector<double>> by_program_;
};

/// Everything one run prints. Metrics keep insertion order.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  void work(const std::string& name, std::uint64_t value) {
    work_.push_back({name, value});
  }
  void note(const std::string& line) { notes_.push_back(line); }
  /// setup_s: the median of the run's set-up times, each one noted.
  void setup(const std::vector<double>& seconds);
  /// An output that did not match its independent reference.
  void check_failed(const std::string& what);
  /// Percentile `q` of `lat` under `name`, with its sample counts noted;
  /// a run that leaves fewer than ten samples beyond the percentile on
  /// any program is a failed check unless `lenient` (fixed-round runs).
  void latency(const std::string& name, const Latencies& lat, double q,
               bool lenient);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const { return problems_.empty(); }
  /// Human-readable lines, the work-count line, then the result JSON as
  /// the last line of stdout.
  void print(bool trace) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::uint64_t>> work_;
  std::vector<std::string> notes_;
  std::vector<std::string> problems_;
};

/// The machine every workload tunes for.
sim::MachineConfig machine();

/// The training period (paper Section III-C) and what is built from it:
/// a KB over every suite program not named in `targets`, so seeding
/// never sees its own targets, and the SeedBank clustered from it.
struct Training {
  kb::KnowledgeBase base;
  search::SeedBank bank;
  double kb_build_s = 0;
  double seedbank_ms = 0;
};
Training train(const std::vector<std::string>& targets);

/// The run's timed set-ups. The first runs before anything is measured
/// and is the one the workload keeps; the other kCount - 1 run between
/// measured rounds, one at each fifth of the measured time, and are
/// thrown away. setup_s is the median, so it sees the host the rounds
/// saw: five set-ups timed back to back at the start of a run spread 23%
/// over 5 seeds on a shared host whose speed drifts over seconds.
class Setups {
 public:
  static constexpr unsigned kCount = 5;

  /// `set_up` performs one set-up and returns its time in seconds. The
  /// first set-up runs here.
  Setups(std::function<double()> set_up, double seconds);
  /// Between measured rounds: runs the next set-up once `measured_s`
  /// reaches its share of the measured time.
  void between_rounds(double measured_s);
  /// Runs every set-up not yet run (runs shorter than planned).
  void finish();
  const std::vector<double>& times() const { return times_; }

 private:
  void run_one() { times_.push_back(set_up_()); }

  std::function<double()> set_up_;
  double seconds_;
  std::vector<double> times_;
};

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Workloads. Each fills `report` with every end-to-end metric (trace
/// off) or every per-layer metric (trace on).
void run_search(const Args& args, const std::vector<std::string>& programs,
                Report& report);
void run_serve(const Args& args, Report& report);

}  // namespace pb
