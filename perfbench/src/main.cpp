// bltc_perf: one run of one benchmark workload.
//
//   bltc_perf --workload <bem_cube|plummer_md|serve_storm|let_gpusim>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// With --trace 0 the run measures the end-to-end metrics through the
// user-facing handles; with --trace 1 it drives the layers one entry point
// at a time and reports the per-layer metrics. The last line of standard
// output is the run's JSON result; the full record (metadata, sample
// counts, notes) is written to <dir>. perfbench/run.py builds this binary
// and sets the thread layout of each workload.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bltc_perf --workload <bem_cube|plummer_md|serve_storm|"
               "let_gpusim> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--out") {
        options.out_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || argc % 2 == 0 || !(options.seconds > 0.0)) {
    return usage();
  }

  void (*run)(perfbench::Record&) = nullptr;
  if (options.workload == "bem_cube") run = perfbench::run_bem_cube;
  if (options.workload == "plummer_md") run = perfbench::run_plummer_md;
  if (options.workload == "serve_storm") run = perfbench::run_serve_storm;
  if (options.workload == "let_gpusim") run = perfbench::run_let_gpusim;
  if (run == nullptr) return usage();

  try {
    perfbench::Record record(options);
    std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    std::fflush(stdout);
    run(record);
    record.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bltc_perf: %s\n", e.what());
    return 1;
  }
  return 0;
}
