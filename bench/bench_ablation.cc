// A1 — ablation of the engine's central data-structure decision
// (DESIGN.md): per-join arrangements (hash indexes) maintained
// incrementally vs. scan-and-filter joins.
//
// The arrangements are what make incremental joins O(|delta| * matches)
// instead of O(|delta| * |relation|) — and they are also the memory that
// E5's load-balancer worst case charges against the engine.  This bench
// quantifies both sides of the trade on a join whose inner relation grows:
// per-change latency with arrangements on vs. off, plus the index entries
// carried.  Both variants must derive the same J; the bench exits 1 when
// they do not (it is the Release run of the scan joins).
#include "bench/bench_util.h"
#include "dlog/engine.h"

namespace nerpa {
namespace {

using bench::Banner;
using bench::Table;
using dlog::Engine;
using dlog::EngineOptions;
using dlog::Row;
using dlog::Value;

constexpr const char* kProgram = R"(
input relation E(a: bigint, b: bigint)
input relation F(b: bigint, c: bigint)
output relation J(a: bigint, c: bigint)
J(a, c) :- E(a, b), F(b, c).
)";

struct Variant {
  double mean_seconds;             // per transaction
  size_t arrangement_entries;
  std::vector<Row> joined;         // J after the inserts
};

/// Mean per-transaction time for 100 single-row E inserts against a
/// preloaded F of `f_rows` rows.
Result<Variant> MeasureVariant(bool use_arrangements, int f_rows) {
  NERPA_ASSIGN_OR_RETURN(auto program, dlog::Program::Parse(kProgram));
  EngineOptions options;
  options.use_arrangements = use_arrangements;
  Engine engine(program, options);
  // 1:1 join keys: each change matches exactly one row, so any growth in
  // per-change cost is pure lookup cost.
  for (int i = 0; i < f_rows; ++i) {
    NERPA_RETURN_IF_ERROR(
        engine.Insert("F", Row{Value::Int(i), Value::Int(i)}));
  }
  NERPA_RETURN_IF_ERROR(engine.Commit().status());
  Stopwatch watch;
  for (int i = 0; i < 100; ++i) {
    NERPA_RETURN_IF_ERROR(
        engine.Insert("E", Row{Value::Int(i), Value::Int(i * 37 % f_rows)}));
    NERPA_RETURN_IF_ERROR(engine.Commit().status());
  }
  double mean = watch.ElapsedSeconds() / 100;
  NERPA_ASSIGN_OR_RETURN(std::vector<Row> joined, engine.Dump("J"));
  return Variant{mean, engine.GetStats().arrangement_entries,
                 std::move(joined)};
}

int Run() {
  Banner("A1 / ablation",
         "arrangements (join indexes) on vs off: latency and memory");
  Table table({"F rows", "indexed /chg", "scan /chg", "slowdown",
               "index entries"});
  for (int f_rows : {1000, 4000, 16000, 64000}) {
    auto indexed = MeasureVariant(true, f_rows);
    auto scan = MeasureVariant(false, f_rows);
    if (!indexed.ok() || !scan.ok()) {
      std::fprintf(stderr, "ablation failed\n");
      return 1;
    }
    if (indexed->joined != scan->joined) {
      std::fprintf(stderr,
                   "ablation: indexed and scan J differ at %d F rows "
                   "(%zu vs %zu rows)\n",
                   f_rows, indexed->joined.size(), scan->joined.size());
      return 1;
    }
    table.AddRow({std::to_string(f_rows), bench::Us(indexed->mean_seconds),
                  bench::Us(scan->mean_seconds),
                  StrFormat("%.0fx", scan->mean_seconds /
                                         indexed->mean_seconds),
                  std::to_string(indexed->arrangement_entries)});
  }
  table.Print();
  std::printf(
      "\nreading: without arrangements, a single-row change scans the whole\n"
      "inner relation (cost grows with it); with arrangements the change\n"
      "costs O(matches), paying one index entry per row per join key — the\n"
      "memory overhead the paper's load-balancer worst case (E5) reports.\n");
  return 0;
}

}  // namespace
}  // namespace nerpa

int main() { return nerpa::Run(); }
