// perfbench — the repository benchmark.
//
//   perfbench --workload harvest|omniscient|whatif|fleet --seed N
//             --seconds S --trace 0|1 --istc PATH --tmp DIR
//   perfbench --workload harvest|omniscient|fleet --seed N --pins 1
//
// --trace 0 measures the workload's end-to-end metrics; --trace 1 is the
// traced run, which prints every per-layer metric.  The last line of
// stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  perfbench/run.py builds this binary and calls it.  --pins 1
// prints the pinned-value rows for the seed instead (src/pins_*.inc).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "checks.hpp"

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool pins = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--istc") opt.istc = value;
    else if (flag == "--tmp") opt.tmp_dir = value;
    else if (flag == "--pins") pins = value == "1";
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (pins) {
    perfbench::print_pins(opt);
    return 0;
  }
  if (opt.seconds <= 0 || opt.istc.empty() || opt.tmp_dir.empty()) {
    std::fprintf(stderr, "perfbench: --seconds, --istc and --tmp are required\n");
    return 2;
  }

  perfbench::Report report;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  if (opt.trace) {
    if (opt.workload != "harvest" && opt.workload != "omniscient" &&
        opt.workload != "whatif" && opt.workload != "fleet") {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   opt.workload.c_str());
      return 2;
    }
    perfbench::run_layers(opt, report);
  } else if (opt.workload == "harvest") {
    perfbench::run_harvest(opt, report);
  } else if (opt.workload == "omniscient") {
    perfbench::run_omniscient(opt, report);
  } else if (opt.workload == "whatif") {
    perfbench::run_whatif(opt, report);
  } else if (opt.workload == "fleet") {
    perfbench::run_fleet(opt, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }
  report.finish();
  return 0;
}
