// ilc_perfbench — one workload per process:
//   ilc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--rounds <n>] [--workdir <dir>]
// Prints a human-readable report, a `work {...}` line with the exact work
// counts, and, as the last line, the result JSON.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

// Passes are about half of a cold evaluation on these programs.
const std::vector<std::string> kPassBound = {"adpcm", "dijkstra", "sha_lite"};
// Simulation is 89-93% of a cold evaluation on these.
const std::vector<std::string> kSimBound = {"mcf_lite", "bitcount", "linklist",
                                            "treewalk"};

int usage(const char* why) {
  std::fprintf(stderr,
               "ilc_perfbench: %s\nusage: ilc_perfbench --workload "
               "search_passbound|search_simbound|serve_tcp --seed N "
               "--seconds S --trace 0|1 [--rounds N] [--workdir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") args.workload = v;
      else if (a == "--seed") args.seed = std::stoull(v);
      else if (a == "--seconds") args.seconds = std::stod(v);
      else if (a == "--trace") args.trace = std::stoi(v) != 0;
      else if (a == "--rounds") args.rounds = std::stoul(v);
      else if (a == "--workdir") args.workdir = v;
      else return usage(("unknown option " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (args.workload != "search_passbound" &&
      args.workload != "search_simbound" && args.workload != "serve_tcp")
    return usage(("unknown workload '" + args.workload + "'").c_str());

  try {
    std::filesystem::create_directories(args.workdir);
    std::printf("workload=%s seed=%llu seconds=%g trace=%d rounds=%u "
                "hardware_concurrency=%u\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.rounds,
                std::thread::hardware_concurrency());
    pb::Report report;
    if (args.workload == "serve_tcp") {
      pb::run_serve(args, report);
    } else {
      const bool passbound = args.workload == "search_passbound";
      pb::run_search(args, passbound ? kPassBound : kSimBound, report);
    }
    report.print(args.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ilc_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
