// E5 — §2.2's honest worst case for automatic incrementality:
//
// "OVN's load balancer benchmark cold starts ovn-controller with large
//  load balancers and then deletes each.  This is a worst-case for
//  incremental computation ... On this benchmark, a DDlog controller took
//  2x the CPU time and 5x the RAM as the C implementation."
//
// Workload: L load balancers, each with V VIPs and B backends; the derived
// state is the VIP x backend cross product per LB.  Phase 1 cold-starts
// (everything inserted at once — incrementality buys nothing, but the
// engine still builds its arrangements/indexes).  Phase 2 deletes the load
// balancers one by one.
//
// Three variants run in SEPARATE child processes (so RSS is clean):
//   * dlog       — the automatically incremental engine (join rule)
//   * restore    — the same engine warm-started from a SerializeState()
//                  checkpoint instead of recomputing the join
//   * imperative — a hand-written C++ controller with exactly the maps it
//                  needs and nothing more
//
// Expected shape: the dlog variant uses MORE cpu and MORE memory — this is
// the cost of generality the paper reports (2x CPU / 5x RAM).  The restore
// variant shows what arrangement checkpointing buys back: loading derived
// state is a linear scan, so it beats recomputation outright.
//
// With --baseline=FILE the bench compares the machine-independent ratios
// (dlog/imperative CPU and peak RSS, restore speedup) against the
// checked-in baseline and exits nonzero on a >30% regression (tune with
// --regress-frac=F).
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "dlog/engine.h"

#include <sys/wait.h>
#include <unistd.h>

namespace nerpa {
namespace {

using bench::Banner;
using bench::BenchArgs;
using bench::JsonEmitter;
using bench::Table;
using dlog::Engine;
using dlog::Row;
using dlog::Value;

// --scale multiplies the LB count (the paper's knob); VIP/backend fan-out
// per LB is fixed so the per-LB cross product stays comparable.
constexpr int kBaseLbs = 40;
constexpr int kVipsPerLb = 20;
constexpr int kBackendsPerLb = 40;

constexpr const char* kProgram = R"(
input relation Lb(lb: bigint, vip: bigint)
input relation Backend(lb: bigint, ip: bigint)
output relation LbFlow(vip: bigint, ip: bigint)
LbFlow(vip, ip) :- Lb(lb, vip), Backend(lb, ip).
)";

int64_t Vip(int lb, int v) { return lb * 1000 + v; }
int64_t Ip(int lb, int b) { return 1000000 + lb * 1000 + b; }

/// Child process: runs one variant, prints "cpu_s rss_bytes cold_s del_s n".
int RunDlogVariant(int kLbs) {
  auto program = dlog::Program::Parse(kProgram);
  if (!program.ok()) return 1;
  int64_t cpu0 = ProcessCpuNanos();
  Engine engine(*program);
  Stopwatch cold;
  for (int lb = 0; lb < kLbs; ++lb) {
    for (int v = 0; v < kVipsPerLb; ++v) {
      (void)engine.Insert("Lb", Row{Value::Int(lb), Value::Int(Vip(lb, v))});
    }
    for (int b = 0; b < kBackendsPerLb; ++b) {
      (void)engine.Insert("Backend",
                          Row{Value::Int(lb), Value::Int(Ip(lb, b))});
    }
  }
  if (!engine.Commit().ok()) return 1;
  double cold_seconds = cold.ElapsedSeconds();
  size_t flows = engine.Size("LbFlow");

  Stopwatch del;
  for (int lb = 0; lb < kLbs; ++lb) {
    for (int v = 0; v < kVipsPerLb; ++v) {
      (void)engine.Delete("Lb", Row{Value::Int(lb), Value::Int(Vip(lb, v))});
    }
    for (int b = 0; b < kBackendsPerLb; ++b) {
      (void)engine.Delete("Backend",
                          Row{Value::Int(lb), Value::Int(Ip(lb, b))});
    }
    if (!engine.Commit().ok()) return 1;
  }
  double del_seconds = del.ElapsedSeconds();
  double cpu = static_cast<double>(ProcessCpuNanos() - cpu0) * 1e-9;
  std::printf("%f %lld %f %f %zu\n", cpu,
              static_cast<long long>(CurrentRssBytes()), cold_seconds,
              del_seconds, flows);
  return 0;
}

/// Child process: cold start from a checkpoint blob instead of recomputing.
/// The build+serialize prep runs untimed; measurement starts at Restore(),
/// which is what a controller restart actually pays.
int RunRestoreVariant(int kLbs) {
  auto program = dlog::Program::Parse(kProgram);
  if (!program.ok()) return 1;
  std::string blob;
  {
    Engine builder(*program);
    for (int lb = 0; lb < kLbs; ++lb) {
      for (int v = 0; v < kVipsPerLb; ++v) {
        (void)builder.Insert("Lb",
                             Row{Value::Int(lb), Value::Int(Vip(lb, v))});
      }
      for (int b = 0; b < kBackendsPerLb; ++b) {
        (void)builder.Insert("Backend",
                             Row{Value::Int(lb), Value::Int(Ip(lb, b))});
      }
    }
    if (!builder.Commit().ok()) return 1;
    blob = builder.SerializeState();
  }  // the "crashed" engine is gone; restart starts here
  int64_t cpu0 = ProcessCpuNanos();
  Stopwatch cold;
  auto restored = Engine::Restore(*program, blob);
  if (!restored.ok()) return 1;
  Engine& engine = **restored;
  double cold_seconds = cold.ElapsedSeconds();
  size_t flows = engine.Size("LbFlow");

  Stopwatch del;
  for (int lb = 0; lb < kLbs; ++lb) {
    for (int v = 0; v < kVipsPerLb; ++v) {
      (void)engine.Delete("Lb", Row{Value::Int(lb), Value::Int(Vip(lb, v))});
    }
    for (int b = 0; b < kBackendsPerLb; ++b) {
      (void)engine.Delete("Backend",
                          Row{Value::Int(lb), Value::Int(Ip(lb, b))});
    }
    if (!engine.Commit().ok()) return 1;
  }
  double del_seconds = del.ElapsedSeconds();
  double cpu = static_cast<double>(ProcessCpuNanos() - cpu0) * 1e-9;
  std::printf("%f %lld %f %f %zu\n", cpu,
              static_cast<long long>(CurrentRssBytes()), cold_seconds,
              del_seconds, flows);
  return 0;
}

int RunImperativeVariant(int kLbs) {
  int64_t cpu0 = ProcessCpuNanos();
  // Exactly the state a hand-written LB controller keeps.
  std::map<int, std::vector<int64_t>> lb_vips, lb_backends;
  std::set<std::pair<int64_t, int64_t>> flows;
  Stopwatch cold;
  for (int lb = 0; lb < kLbs; ++lb) {
    for (int v = 0; v < kVipsPerLb; ++v) {
      lb_vips[lb].push_back(Vip(lb, v));
    }
    for (int b = 0; b < kBackendsPerLb; ++b) {
      lb_backends[lb].push_back(Ip(lb, b));
    }
    for (int64_t vip : lb_vips[lb]) {
      for (int64_t ip : lb_backends[lb]) {
        flows.emplace(vip, ip);
      }
    }
  }
  double cold_seconds = cold.ElapsedSeconds();
  size_t flow_count = flows.size();

  Stopwatch del;
  for (int lb = 0; lb < kLbs; ++lb) {
    for (int64_t vip : lb_vips[lb]) {
      for (int64_t ip : lb_backends[lb]) {
        flows.erase({vip, ip});
      }
    }
    lb_vips.erase(lb);
    lb_backends.erase(lb);
  }
  double del_seconds = del.ElapsedSeconds();
  double cpu = static_cast<double>(ProcessCpuNanos() - cpu0) * 1e-9;
  std::printf("%f %lld %f %f %zu\n", cpu,
              static_cast<long long>(CurrentRssBytes()), cold_seconds,
              del_seconds, flow_count);
  return 0;
}

struct ChildResult {
  double cpu = 0;
  long long rss = 0;
  double cold = 0;
  double del = 0;
  size_t flows = 0;
};

bool RunChild(const char* self, const char* variant, const BenchArgs& args,
              ChildResult* out) {
  std::string command = std::string(self) + " " + variant + args.Forward();
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  char line[256] = {0};
  bool ok = fgets(line, sizeof line, pipe) != nullptr;
  int status = pclose(pipe);
  if (!ok || status != 0) return false;
  return std::sscanf(line, "%lf %lld %lf %lf %zu", &out->cpu, &out->rss,
                     &out->cold, &out->del, &out->flows) == 5;
}

int Run(const char* self, int argc, char** argv, const BenchArgs& args) {
  std::string baseline_path;
  double regress_frac = 0.30;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--regress-frac=", 15) == 0) {
      regress_frac = std::atof(argv[i] + 15);
    }
  }
  const int kLbs = args.Scaled(kBaseLbs);
  Banner("E5 / §2.2",
         "load-balancer cold start + delete-each: the incremental worst "
         "case");
  std::printf("workload: %d LBs x %d VIPs x %d backends = %d derived flows\n\n",
              kLbs, kVipsPerLb, kBackendsPerLb,
              kLbs * kVipsPerLb * kBackendsPerLb);
  ChildResult dlog_result, restore_result, imp_result;
  if (!RunChild(self, "dlog", args, &dlog_result) ||
      !RunChild(self, "restore", args, &restore_result) ||
      !RunChild(self, "imperative", args, &imp_result)) {
    std::fprintf(stderr, "child variant failed\n");
    return 1;
  }
  if (dlog_result.flows != imp_result.flows ||
      dlog_result.flows != restore_result.flows) {
    std::fprintf(stderr, "variants disagree on flow count: %zu vs %zu vs %zu\n",
                 dlog_result.flows, restore_result.flows, imp_result.flows);
    return 1;
  }
  Table table({"variant", "cold start", "delete phase", "CPU total",
               "peak RSS"});
  table.AddRow({"dlog (auto-incremental)", bench::Ms(dlog_result.cold),
                bench::Ms(dlog_result.del), bench::Ms(dlog_result.cpu),
                StrFormat("%.1f MiB",
                          static_cast<double>(dlog_result.rss) / 1048576.0)});
  table.AddRow({"dlog (checkpoint restore)", bench::Ms(restore_result.cold),
                bench::Ms(restore_result.del), bench::Ms(restore_result.cpu),
                StrFormat("%.1f MiB",
                          static_cast<double>(restore_result.rss) /
                              1048576.0)});
  table.AddRow({"imperative (hand-written)", bench::Ms(imp_result.cold),
                bench::Ms(imp_result.del), bench::Ms(imp_result.cpu),
                StrFormat("%.1f MiB",
                          static_cast<double>(imp_result.rss) / 1048576.0)});
  table.Print();
  double cpu_ratio = dlog_result.cpu / imp_result.cpu;
  double rss_ratio = static_cast<double>(dlog_result.rss) /
                     static_cast<double>(imp_result.rss);
  double restore_speedup = restore_result.cold > 0
                               ? dlog_result.cold / restore_result.cold
                               : 0;
  std::printf(
      "\nratios (dlog / imperative): CPU %.1fx, RSS %.1fx\n"
      "checkpoint restore: %.1fx faster than recomputing the cold start\n"
      "paper reference: DDlog took 2x the CPU and 5x the RAM of the C\n"
      "implementation on this benchmark (§2.2).  Expected shape: the\n"
      "automatically incremental engine LOSES here — indexing for\n"
      "incrementality is pure overhead on a build-then-tear-down workload;\n"
      "checkpointing sidesteps the recomputation entirely.\n",
      cpu_ratio, rss_ratio, restore_speedup);

  JsonEmitter emitter("lb_coldstart", args);
  emitter.Param("load_balancers", kLbs);
  emitter.Param("vips_per_lb", kVipsPerLb);
  emitter.Param("backends_per_lb", kBackendsPerLb);
  emitter.Metric("derived_flows", static_cast<int64_t>(dlog_result.flows));
  emitter.Metric("dlog_cold_start_s", dlog_result.cold);
  emitter.Metric("dlog_delete_phase_s", dlog_result.del);
  emitter.Metric("dlog_cpu_s", dlog_result.cpu);
  emitter.Metric("dlog_rss_bytes", static_cast<int64_t>(dlog_result.rss));
  emitter.Metric("imperative_cold_start_s", imp_result.cold);
  emitter.Metric("imperative_delete_phase_s", imp_result.del);
  emitter.Metric("imperative_cpu_s", imp_result.cpu);
  emitter.Metric("imperative_rss_bytes",
                 static_cast<int64_t>(imp_result.rss));
  emitter.Metric("restore_cold_start_s", restore_result.cold);
  emitter.Metric("restore_delete_phase_s", restore_result.del);
  emitter.Metric("restore_cpu_s", restore_result.cpu);
  emitter.Metric("restore_rss_bytes",
                 static_cast<int64_t>(restore_result.rss));
  emitter.Metric("cpu_dlog_over_imperative", cpu_ratio);
  emitter.Metric("rss_dlog_over_imperative", rss_ratio);
  emitter.Metric("restore_speedup_vs_cold", restore_speedup);
  emitter.Write();

  // --- CI gate: the machine-independent ratios against the checked-in
  // baseline.  The dlog/imperative CPU and RSS ratios are ceilings
  // (regressions push them up); restore_speedup_vs_cold is a floor
  // (regressions pull it down).
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "bench: cannot open baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = Json::Parse(text.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "bench: baseline parse: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    const Json* metrics = parsed.value().Find("metrics");
    struct Gate {
      const char* metric;
      double value;
      bool ceiling;
    };
    const Gate gates[] = {{"cpu_dlog_over_imperative", cpu_ratio, true},
                          {"rss_dlog_over_imperative", rss_ratio, true},
                          {"restore_speedup_vs_cold", restore_speedup, false}};
    for (const Gate& gate : gates) {
      const Json* ref =
          metrics == nullptr ? nullptr : metrics->Find(gate.metric);
      if (ref == nullptr || !ref->is_number()) {
        std::fprintf(stderr, "bench: baseline lacks %s\n", gate.metric);
        return 1;
      }
      double bound = ref->as_double() *
                     (gate.ceiling ? 1.0 + regress_frac : 1.0 - regress_frac);
      std::printf("baseline gate: %s %.2fx vs %.2fx %s (regress-frac %.2f)\n",
                  gate.metric, gate.value, bound,
                  gate.ceiling ? "ceiling" : "floor", regress_frac);
      if (gate.ceiling ? gate.value > bound : gate.value < bound) {
        std::fprintf(stderr, "bench: REGRESSION: %s %.2fx %s %.2fx\n",
                     gate.metric, gate.value, gate.ceiling ? ">" : "<",
                     bound);
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace nerpa

int main(int argc, char** argv) {
  nerpa::bench::BenchArgs args = nerpa::bench::BenchArgs::Parse(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "dlog") == 0) {
    return nerpa::RunDlogVariant(args.Scaled(nerpa::kBaseLbs));
  }
  if (argc > 1 && std::strcmp(argv[1], "restore") == 0) {
    return nerpa::RunRestoreVariant(args.Scaled(nerpa::kBaseLbs));
  }
  if (argc > 1 && std::strcmp(argv[1], "imperative") == 0) {
    return nerpa::RunImperativeVariant(args.Scaled(nerpa::kBaseLbs));
  }
  return nerpa::Run(argv[0], argc, argv, args);
}
