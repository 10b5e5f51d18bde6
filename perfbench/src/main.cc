// perfbench: the full-stack snvs benchmark.
//
//   perfbench --workload <port_churn|bulk_reconfig|packet_learn>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints the environment stamp, a human-readable report, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 0 when every correctness check passed, 1 when one failed, 2 on a
// usage error or an unoptimised build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<port_churn|bulk_reconfig|packet_learn> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || options.seconds <= 0) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  perfbench::Outcome (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "port_churn") {
    run = perfbench::RunPortChurn;
  } else if (options.workload == "bulk_reconfig") {
    run = perfbench::RunBulkReconfig;
  } else if (options.workload == "packet_learn") {
    run = perfbench::RunPacketLearn;
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }

  if (!perfbench::PrintEnvironment()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a build without "
                 "optimisation (configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 2;
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  perfbench::Outcome outcome = run(options);
  for (const std::string& error : outcome.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  if (outcome.attempted == 0) outcome.Fail("no operation was attempted");
  perfbench::PrintResultLine(outcome);
  return outcome.correct ? 0 : 1;
}
