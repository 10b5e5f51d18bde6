// E6 — the §1 graph-labeling example: incremental work proportional to the
// change, not the network.
//
// The paper opens with the reachable-label program
//
//     Label(n1, label) :- GivenLabel(n1, label).
//     Label(n2, label) :- Label(n1, label), Edge(n1, n2).
//
// and argues that a hand-written incremental version took thousands of
// lines and several releases to debug, while DDlog generates it from two
// rules.  Here we measure what the generated incrementality buys: on a
// random graph of N nodes and ~3N edges, the cost of a single edge insert
// or delete through the incremental engine versus recomputing the whole
// label set from scratch, across an N sweep.  Expected shape: the
// incremental column stays roughly flat while recompute grows with N.
//
// Flags (bench::BenchArgs): --scale=F scales the node counts, --seed=N
// seeds the graphs, --out=DIR receives BENCH_reachability.json with one
// entry per N (nodes, edges, recompute, insert and delete seconds).  After
// each size's trials the labels must equal those of a fresh engine loaded
// with the surviving edges; the bench exits 1 when they differ.
#include <algorithm>
#include <random>
#include <set>

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

constexpr const char* kProgram = R"(
input relation GivenLabel(n1: bigint, label: string)
input relation Edge(n1: bigint, n2: bigint)
output relation Label(n: bigint, label: string)
Label(n1, label) :- GivenLabel(n1, label).
Label(n2, label) :- Label(n1, label), Edge(n1, n2).
)";

struct Graph {
  std::vector<std::pair<int64_t, int64_t>> edges;
  std::vector<int64_t> roots;
};

Graph MakeGraph(int nodes, std::mt19937_64& rng) {
  Graph graph;
  // Mostly-forward random graph with a few back edges (cycles), 3 edges
  // per node on average — network topologies are largely hierarchical.
  // A fully random graph would be one giant SCC, where DRed's
  // overdelete-everything-downstream behaviour degenerates to a stratum
  // recompute on every deletion (see the note below).
  for (int i = 0; i < nodes * 3; ++i) {
    int64_t a = static_cast<int64_t>(rng() % static_cast<uint64_t>(nodes));
    int64_t b = static_cast<int64_t>(rng() % static_cast<uint64_t>(nodes));
    if (a == b) continue;
    bool back_edge = rng() % 20 == 0;
    if ((a > b) != back_edge) std::swap(a, b);
    graph.edges.emplace_back(a, b);
  }
  for (int i = 0; i < 4; ++i) {
    graph.roots.push_back(static_cast<int64_t>(
        rng() % static_cast<uint64_t>(nodes)));
  }
  return graph;
}

Status LoadGraph(Engine& engine, const Graph& graph) {
  for (const auto& [a, b] : graph.edges) {
    NERPA_RETURN_IF_ERROR(
        engine.Insert("Edge", Row{Value::Int(a), Value::Int(b)}));
  }
  for (int64_t root : graph.roots) {
    NERPA_RETURN_IF_ERROR(engine.Insert(
        "GivenLabel", Row{Value::Int(root), Value::String("reach")}));
  }
  return engine.Commit().status();
}

int Run(const BenchArgs& args) {
  Banner("E6 / §1",
         "incremental graph labeling vs full recompute (the 2-rule Label "
         "program)");
  auto program = dlog::Program::Parse(kProgram);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }

  Table table({"nodes", "edges", "full recompute", "1 edge insert",
               "1 edge delete", "speedup (ins)", "speedup (del)"});
  Json::Array sweep;
  for (int base_nodes : {100, 300, 1000, 3000, 10000}) {
    int nodes = std::max(2, args.Scaled(base_nodes));
    std::mt19937_64 rng(args.seed);
    Graph graph = MakeGraph(nodes, rng);

    // Full recompute cost: load everything into a fresh engine.
    Engine scratch(*program);
    Stopwatch full_watch;
    if (!LoadGraph(scratch, graph).ok()) return 1;
    double full_seconds = full_watch.ElapsedSeconds();

    // Incremental engine, pre-loaded.
    Engine engine(*program);
    if (!LoadGraph(engine, graph).ok()) return 1;
    std::set<std::pair<int64_t, int64_t>> edges(graph.edges.begin(),
                                                graph.edges.end());

    // Measure a batch of single-edge inserts and deletes (median of 20).
    std::vector<double> insert_times, delete_times;
    for (int trial = 0; trial < 20; ++trial) {
      int64_t a = static_cast<int64_t>(rng() % static_cast<uint64_t>(nodes));
      int64_t b = static_cast<int64_t>(rng() % static_cast<uint64_t>(nodes));
      if (a == b) continue;
      Row edge{Value::Int(a), Value::Int(b)};
      {
        Stopwatch watch;
        if (!engine.Insert("Edge", edge).ok() || !engine.Commit().ok()) {
          return 1;
        }
        insert_times.push_back(watch.ElapsedSeconds());
      }
      {
        Stopwatch watch;
        if (!engine.Delete("Edge", edge).ok() || !engine.Commit().ok()) {
          return 1;
        }
        delete_times.push_back(watch.ElapsedSeconds());
      }
      edges.erase({a, b});  // gone even if the graph already held it
    }
    // The labels after the trials must be those of the surviving edges.
    Engine reference(*program);
    if (!LoadGraph(reference, {{edges.begin(), edges.end()}, graph.roots})
             .ok()) {
      return 1;
    }
    if (engine.Dump("Label").value() != reference.Dump("Label").value()) {
      std::fprintf(stderr,
                   "labels diverged from a fresh load at %d nodes\n", nodes);
      return 1;
    }
    double insert_median = bench::Percentile(insert_times, 0.5);
    double delete_median = bench::Percentile(delete_times, 0.5);
    table.AddRow({std::to_string(nodes),
                  std::to_string(graph.edges.size()),
                  bench::Ms(full_seconds), bench::Us(insert_median),
                  bench::Us(delete_median),
                  StrFormat("%.0fx", full_seconds / insert_median),
                  StrFormat("%.0fx", full_seconds / delete_median)});
    Json::Object point;
    point["nodes"] = static_cast<int64_t>(nodes);
    point["edges"] = static_cast<int64_t>(graph.edges.size());
    point["recompute_s"] = full_seconds;
    point["insert_s"] = insert_median;
    point["delete_s"] = delete_median;
    sweep.push_back(Json(std::move(point)));
  }
  table.Print();
  std::printf(
      "\npaper reference: the incremental Java equivalent took 'several\n"
      "thousand lines' and 'multiple releases to debug' (§1); the program\n"
      "above is 2 rules.  Expected shape: speedups grow with graph size.\n"
      "note: deletions use DRed (delete-and-rederive).  On a graph that is\n"
      "one big cycle-heavy SCC, deleting any edge overdeletes the whole\n"
      "downstream closure and re-derivation approaches a full stratum\n"
      "recompute — the classic DRed worst case; differential-dataflow-style\n"
      "engines (DDlog's substrate) do better there.\n");

  JsonEmitter emitter("reachability", args);
  emitter.Param("edges_per_node", static_cast<int64_t>(3));
  emitter.Param("trials_per_size", static_cast<int64_t>(20));
  emitter.Metric("sweep", Json(std::move(sweep)));
  emitter.Write();
  return 0;
}

}  // namespace
}  // namespace nerpa

int main(int argc, char** argv) {
  return nerpa::Run(nerpa::bench::BenchArgs::Parse(argc, argv));
}
