#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "controller/kb_builder.hpp"
#include "support/rng.hpp"

namespace pb {

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL * (a + 1));
  std::uint64_t z = ilc::support::splitmix64(s);
  s = z ^ (0xbf58476d1ce4e5b9ULL * (b + 1));
  return ilc::support::splitmix64(s);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Latencies::stratified(double q) const {
  std::vector<double> per_program;
  for (const auto& [name, samples] : by_program_)
    per_program.push_back(quantile(samples, q));
  return geomean(per_program);
}

std::size_t Latencies::min_samples() const {
  std::size_t n = by_program_.empty() ? 0 : ~std::size_t{0};
  for (const auto& [name, samples] : by_program_)
    n = std::min(n, samples.size());
  return n;
}

std::string Latencies::counts() const {
  std::ostringstream os;
  for (const auto& [name, samples] : by_program_)
    os << (os.tellp() > 0 ? " " : "") << name << "=" << samples.size();
  return os.str();
}

void Report::setup(const std::vector<double>& seconds) {
  std::ostringstream os;
  os << "setup_s: median of";
  for (double s : seconds) os << " " << s;
  note(os.str());
  metric("setup_s", median(seconds), "s");
}

Setups::Setups(std::function<double()> set_up, double seconds)
    : set_up_(std::move(set_up)), seconds_(seconds) {
  run_one();
}

void Setups::between_rounds(double measured_s) {
  if (times_.size() < kCount &&
      measured_s >= seconds_ * static_cast<double>(times_.size()) / kCount)
    run_one();
}

void Setups::finish() {
  while (times_.size() < kCount) run_one();
}

void Report::check_failed(const std::string& what) {
  if (problems_.size() < 20)
    problems_.push_back(what);
  else if (problems_.size() == 20)
    problems_.push_back("(further failures omitted)");
}

void Report::latency(const std::string& name, const Latencies& lat, double q,
                     bool lenient) {
  // Ten samples beyond the percentile on every program: n * (1 - q) >= 10.
  const std::size_t need =
      static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
  std::ostringstream os;
  os << name << ": per-program p" << static_cast<int>(q * 100 + 0.5)
     << " geomean over " << lat.counts() << " samples (need >= " << need
     << " each)";
  note(os.str());
  if (lat.min_samples() < need && !lenient)
    check_failed(name + ": too few samples for its percentile (" +
                 lat.counts() + ")");
  metric(name, lat.stratified(q), "ms");
}

void Report::print(bool trace) const {
  std::printf("--- %s metrics ---\n", trace ? "per-layer" : "end-to-end");
  for (const auto& [name, vu] : metrics_)
    std::printf("  %-34s %14.4f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  for (const std::string& n : notes_) std::printf("  # %s\n", n.c_str());
  std::printf("operations: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (const std::string& p : problems_)
    std::printf("CHECK FAILED: %s\n", p.c_str());

  std::string work = "{";
  for (std::size_t i = 0; i < work_.size(); ++i)
    work += (i ? ", \"" : "\"") + work_[i].first +
            "\": " + std::to_string(work_[i].second);
  std::printf("work %s}\n", work.c_str());

  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics_[i].second.first)
                      ? metrics_[i].second.first
                      : 0.0);
    out += (i ? ", \"" : "\"") + metrics_[i].first + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

sim::MachineConfig machine() { return ilc::sim::amd_like(); }

Training train(const std::vector<std::string>& targets) {
  Training t;
  const std::vector<ilc::wl::Workload> suite = ilc::wl::make_suite();
  std::vector<ilc::ctrl::SuiteProgram> programs;
  for (const auto& w : suite)
    if (std::find(targets.begin(), targets.end(), w.name) == targets.end())
      programs.push_back({w.name, &w.module});

  // The KB seed is fixed: the training period is the system's state, not
  // the workload's input.
  const Clock::time_point t0 = Clock::now();
  t.base = ilc::ctrl::build_knowledge_base(programs, machine(),
                                         /*sequence_budget=*/40,
                                         /*flag_budget=*/0, /*seed=*/2008);
  t.kb_build_s = seconds_since(t0);

  const Clock::time_point t1 = Clock::now();
  ilc::search::SeedBankOptions opts;
  opts.machine = machine().name;
  t.bank = ilc::search::SeedBank(t.base, ilc::search::SequenceSpace{}, opts);
  t.seedbank_ms = seconds_since(t1) * 1e3;
  return t;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace pb
