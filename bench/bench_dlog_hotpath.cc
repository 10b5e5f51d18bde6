// A2 — the dlog hot path: interned values, cached row hashes, probe-free
// joins, and persistent transaction scratch state.
//
// Three workloads exercise exactly those costs:
//
//   1. join-heavy commit stream — 32 keys re-pointed per commit against a
//      fanout-32 arrangement, so every commit probes and re-derives ~2,000
//      join rows.  Reported: commits/s, delta rows/s, arrangement probes/s
//      (from Engine::Stats).
//   2. commit latency vs relation size — the same single-key update
//      against databases of growing size; incrementality says the curve
//      should stay near-flat.
//   3. peak RSS of a string-keyed join database (4,096 keys x 64 rows at
//      --scale=1) loaded by one bulk commit in a fresh child process, so
//      the figure is a clean process peak, and beside it the heap bytes
//      in use: RSS also counts freed heap that glibc keeps, so it reads
//      allocator retention as engine memory.
//
// Every number comes from this binary on this machine.  Nothing is
// compared against constants recorded elsewhere: a ratio against another
// machine's run measures the machine, not the engine.  Compare two builds
// by running both binaries back to back.
#include <malloc.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "dlog/engine.h"

namespace nerpa {
namespace {

using bench::Banner;
using bench::BenchArgs;
using bench::JsonEmitter;
using bench::Table;
using dlog::Engine;
using dlog::Row;
using dlog::Value;

constexpr const char* kJoinProgram = R"(
input relation R(k: string, a: bigint)
input relation S(k: string, b: bigint)
output relation J(a: bigint, b: bigint)
J(a, b) :- R(k, a), S(k, b).
)";

std::string KeyName(int k) { return StrFormat("key-%d", k); }

/// Child process: builds the string-keyed join database and prints
/// "rss_bytes heap_in_use_bytes out_rows".
int RunRssChild(const BenchArgs& args) {
  auto program = dlog::Program::Parse(kJoinProgram);
  if (!program.ok()) return 1;
  Engine engine(*program);
  const int keys = args.Scaled(4096);
  const int fanout = 64;
  for (int k = 0; k < keys; ++k) {
    std::string key = StrFormat("lb-vip-key-%08d", k);
    (void)engine.Insert("R", Row{Value::String(key), Value::Int(k)});
    for (int f = 0; f < fanout; ++f) {
      (void)engine.Insert("S",
                          Row{Value::String(key), Value::Int(k * 1000 + f)});
    }
  }
  if (!engine.Commit().ok()) return 1;
  // In use: the arenas' allocated chunks plus the chunks malloc serves by
  // mmap (large arrays), which uordblks leaves out.
  struct mallinfo2 heap = mallinfo2();
  std::printf("%lld %zu %zu\n", static_cast<long long>(CurrentRssBytes()),
              heap.uordblks + heap.hblkhd, engine.Size("J"));
  return 0;
}

bool MeasureRss(const char* self, const BenchArgs& args, int64_t* rss,
                size_t* heap, size_t* rows) {
  std::string command = std::string(self) + " rss" + args.Forward();
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return false;
  char line[128] = {0};
  bool ok = fgets(line, sizeof line, pipe) != nullptr;
  int status = pclose(pipe);
  if (!ok || status != 0) return false;
  long long rss_value = 0;
  if (std::sscanf(line, "%lld %zu %zu", &rss_value, heap, rows) != 3) {
    return false;
  }
  *rss = rss_value;
  return true;
}

int Run(const char* self, const BenchArgs& args) {
  Banner("A2", "dlog hot path: interning, probe-free joins, txn reuse");

  JsonEmitter emitter("dlog_hotpath", args);

  // --- workload 1: join-heavy commit stream ---
  const int kKeys = 1024, kFanout = 32, kBatch = 32;
  const int kCommits = args.Scaled(500);
  double commits_per_sec = 0, delta_rows_per_sec = 0, probes_per_sec = 0;
  {
    auto program = dlog::Program::Parse(kJoinProgram);
    if (!program.ok()) return 1;
    Engine engine(*program);
    for (int k = 0; k < kKeys; ++k) {
      std::string key = KeyName(k);
      (void)engine.Insert("R", Row{Value::String(key), Value::Int(k)});
      for (int f = 0; f < kFanout; ++f) {
        (void)engine.Insert(
            "S", Row{Value::String(key), Value::Int(k * 1000 + f)});
      }
    }
    if (!engine.Commit().ok()) return 1;
    std::mt19937_64 rng(args.seed);
    std::vector<int64_t> current(kKeys);
    for (int k = 0; k < kKeys; ++k) current[static_cast<size_t>(k)] = k;
    uint64_t delta_rows = 0;
    Engine::Stats before_stats = engine.GetStats();
    Stopwatch watch;
    for (int c = 0; c < kCommits; ++c) {
      for (int b = 0; b < kBatch; ++b) {
        int k = static_cast<int>(rng() % kKeys);
        std::string key = KeyName(k);
        (void)engine.Delete(
            "R", Row{Value::String(key), Value::Int(current[k])});
        current[k] = k + 1000000LL * (c + 1) + b;
        (void)engine.Insert(
            "R", Row{Value::String(key), Value::Int(current[k])});
      }
      auto delta = engine.Commit();
      if (!delta.ok()) return 1;
      for (const auto& [name, d] : delta->outputs) delta_rows += d.size();
    }
    double seconds = watch.ElapsedSeconds();
    Engine::Stats after_stats = engine.GetStats();
    uint64_t probes = after_stats.probes - before_stats.probes;
    commits_per_sec = kCommits / seconds;
    delta_rows_per_sec = static_cast<double>(delta_rows) / seconds;
    probes_per_sec = static_cast<double>(probes) / seconds;

    Table table({"metric", "value"});
    table.AddRow({"commits/s", StrFormat("%.0f", commits_per_sec)});
    table.AddRow({"delta rows/s", StrFormat("%.0f", delta_rows_per_sec)});
    table.AddRow({"probes/s", StrFormat("%.0f", probes_per_sec)});
    table.Print();
    std::printf("probe detail: %llu probes, %llu hits\n\n",
                static_cast<unsigned long long>(probes),
                static_cast<unsigned long long>(after_stats.probe_hits -
                                                before_stats.probe_hits));

    emitter.Metric("join_commits_per_s", commits_per_sec);
    emitter.Metric("join_delta_rows_per_s", delta_rows_per_sec);
    emitter.Metric("join_probes_per_s", probes_per_sec);
    Json::Object intern;
    intern["strings"] =
        static_cast<int64_t>(after_stats.intern.strings);
    intern["tuples"] = static_cast<int64_t>(after_stats.intern.tuples);
    intern["hits"] = static_cast<int64_t>(after_stats.intern.hits);
    intern["misses"] = static_cast<int64_t>(after_stats.intern.misses);
    emitter.Metric("intern_pool", Json(std::move(intern)));
    emitter.Metric("arrangement_bytes",
                   static_cast<int64_t>(after_stats.arrangement_bytes));
  }

  // --- workload 2: commit latency vs relation size ---
  const int kSizes[] = {1024, 4096, 16384, 65536};
  Json::Array latency_curve;
  {
    Table table({"relation size", "us/commit"});
    const int kLatencyCommits = args.Scaled(500);
    for (size_t s = 0; s < 4; ++s) {
      int size = kSizes[s];
      auto program = dlog::Program::Parse(kJoinProgram);
      Engine engine(*program);
      int keys = size / kFanout;
      for (int k = 0; k < keys; ++k) {
        std::string key = KeyName(k);
        (void)engine.Insert("R", Row{Value::String(key), Value::Int(k)});
        for (int f = 0; f < kFanout; ++f) {
          (void)engine.Insert(
              "S", Row{Value::String(key), Value::Int(k * 1000 + f)});
        }
      }
      if (!engine.Commit().ok()) return 1;
      std::mt19937_64 rng(args.seed);
      std::vector<int64_t> current(static_cast<size_t>(keys));
      for (int k = 0; k < keys; ++k) current[static_cast<size_t>(k)] = k;
      Stopwatch watch;
      for (int c = 0; c < kLatencyCommits; ++c) {
        int k = static_cast<int>(rng() % static_cast<uint64_t>(keys));
        std::string key = KeyName(k);
        (void)engine.Delete(
            "R", Row{Value::String(key), Value::Int(current[k])});
        current[k] = k + 1000000LL * (c + 1);
        (void)engine.Insert(
            "R", Row{Value::String(key), Value::Int(current[k])});
        if (!engine.Commit().ok()) return 1;
      }
      double us = watch.ElapsedSeconds() / kLatencyCommits * 1e6;
      table.AddRow({std::to_string(size), StrFormat("%.1f", us)});
      Json::Object point;
      point["relation_size"] = size;
      point["us_per_commit"] = us;
      latency_curve.push_back(Json(std::move(point)));
    }
    table.Print();
    std::printf("\n");
  }
  emitter.Metric("commit_latency_vs_size", Json(std::move(latency_curve)));

  // --- workload 3: peak RSS of a bulk-loaded join (child process) ---
  int64_t rss = 0;
  size_t heap = 0, rows = 0;
  if (!MeasureRss(self, args, &rss, &heap, &rows)) {
    std::fprintf(stderr, "rss child failed\n");
    return 1;
  }
  {
    Table table({"variant", "peak RSS", "heap in use", "derived rows"});
    table.AddRow({"bulk-loaded string join",
                  StrFormat("%.1f MiB", static_cast<double>(rss) / 1048576.0),
                  StrFormat("%.1f MiB", static_cast<double>(heap) / 1048576.0),
                  std::to_string(rows)});
    table.Print();
  }
  emitter.Param("rss_keys", args.Scaled(4096));
  emitter.Param("rss_fanout", 64);
  emitter.Metric("rss_bytes", rss);
  emitter.Metric("heap_in_use_bytes", static_cast<int64_t>(heap));

  emitter.Param("join_keys", kKeys);
  emitter.Param("join_fanout", kFanout);
  emitter.Param("join_batch", kBatch);
  emitter.Param("join_commits", kCommits);
  emitter.Write();
  return 0;
}

}  // namespace
}  // namespace nerpa

int main(int argc, char** argv) {
  nerpa::bench::BenchArgs args = nerpa::bench::BenchArgs::Parse(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "rss") == 0) {
    return nerpa::RunRssChild(args);
  }
  return nerpa::Run(argv[0], args);
}
