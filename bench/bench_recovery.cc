// E-HA — crash recovery and data-plane resynchronization costs (src/ha).
//
// The paper leaves management/control-plane fault tolerance open (§5);
// this bench characterizes the single-node recovery story along the two
// axes that matter operationally:
//
//   1. Cold restore: time to rebuild the management plane from a snapshot
//      (plus the full stack on top of it) as the snapshot grows.
//   2. Reconciliation: data-plane writes issued by resynchronization as a
//      function of how far the device diverged while the controller was
//      down — 0 writes when converged, proportional to the diff otherwise
//      (never "wipe and reinstall everything").
//
// Results are printed as tables and written to BENCH_recovery.json for
// machine consumption.
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "ha/durable.h"
#include "snvs/snvs.h"

namespace nerpa {
namespace {

using bench::Banner;
using bench::Table;

std::string FreshDir(const std::string& name) {
  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/nerpa_bench_recovery_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Status AddPorts(snvs::SnvsStack& stack, int count) {
  for (int i = 0; i < count; ++i) {
    NERPA_RETURN_IF_ERROR(stack.AddPort(StrFormat("p%d", i), i, "access",
                                        (i % 1024) + 1)
                              .status());
  }
  return Status::Ok();
}

constexpr const char* kTables[] = {"InVlanUntagged", "InVlanTagged",
                                   "PortMirror",     "Acl",
                                   "SMac",           "Dmac",
                                   "FloodVlan",      "OutVlan"};

/// Experiment 1: snapshot size vs. time to restore.
Result<Json> ColdRestore() {
  Banner("E-HA.1", "cold restore: snapshot size vs. recovery time");
  Table table({"ports", "snapshot bytes", "db restore", "full stack"});
  Json::Array rows;
  for (int ports : {100, 500, 1000, 2000}) {
    std::string dir = FreshDir(StrFormat("cold_%d", ports));
    {
      snvs::SnvsOptions options;
      options.ha_dir = dir;
      NERPA_ASSIGN_OR_RETURN(auto stack, snvs::BuildSnvsStack(options));
      NERPA_RETURN_IF_ERROR(AddPorts(*stack, ports));
      NERPA_RETURN_IF_ERROR(stack->Checkpoint());
    }
    auto snapshot_bytes = static_cast<int64_t>(
        std::filesystem::file_size(dir + "/snapshot.json"));

    // Database-only restore (snapshot apply + WAL replay).
    Stopwatch db_watch;
    NERPA_RETURN_IF_ERROR(
        ha::RecoverDatabase(snvs::SnvsSchema(), dir).status());
    double db_seconds = db_watch.ElapsedSeconds();

    // Full stack rebuild: restore + engine re-derivation + device resync.
    Stopwatch stack_watch;
    snvs::SnvsOptions options;
    options.ha_dir = dir;
    NERPA_ASSIGN_OR_RETURN(auto stack, snvs::BuildSnvsStack(options));
    double stack_seconds = stack_watch.ElapsedSeconds();

    table.AddRow({StrFormat("%d", ports),
                  StrFormat("%" PRId64, snapshot_bytes),
                  bench::Ms(db_seconds), bench::Ms(stack_seconds)});
    rows.push_back(Json(Json::Object{
        {"ports", Json(ports)},
        {"snapshot_bytes", Json(snapshot_bytes)},
        {"db_restore_seconds", Json(db_seconds)},
        {"stack_rebuild_seconds", Json(stack_seconds)},
    }));
    std::filesystem::remove_all(dir);
  }
  table.Print();
  std::printf("\n");
  return Json(std::move(rows));
}

/// Experiment 2: resynchronization writes vs. divergence.
Result<Json> Reconciliation() {
  Banner("E-HA.2",
         "resynchronization: device divergence vs. repair writes");
  constexpr int kPorts = 200;
  Table table({"divergence", "entries lost", "resync writes", "time"});
  Json::Array rows;
  for (double fraction : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    std::string dir = FreshDir(StrFormat("resync_%d",
                                         static_cast<int>(fraction * 100)));
    auto program = snvs::SnvsP4Program();
    auto sw = std::make_unique<p4::Switch>(program);
    auto client = std::make_unique<p4::RuntimeClient>(sw.get());
    {
      snvs::SnvsOptions options;
      options.ha_dir = dir;
      options.external_clients = {client.get()};
      NERPA_ASSIGN_OR_RETURN(auto stack, snvs::BuildSnvsStack(options));
      NERPA_RETURN_IF_ERROR(AddPorts(*stack, kPorts));
    }  // controller crashes; the device keeps its tables

    // The device loses `fraction` of its entries while unmanaged.
    int64_t lost = 0;
    for (const char* name : kTables) {
      auto entries = client->ReadTable(name);
      NERPA_RETURN_IF_ERROR(entries.status());
      auto keep_boundary =
          static_cast<size_t>((1.0 - fraction) * entries->size());
      for (size_t i = keep_boundary; i < entries->size(); ++i) {
        NERPA_RETURN_IF_ERROR(client->Delete((*entries)[i]));
        ++lost;
      }
    }
    uint64_t writes_before = client->write_count();

    Stopwatch watch;
    snvs::SnvsOptions options;
    options.ha_dir = dir;
    options.external_clients = {client.get()};
    NERPA_ASSIGN_OR_RETURN(auto stack, snvs::BuildSnvsStack(options));
    double seconds = watch.ElapsedSeconds();

    uint64_t repair_writes = client->write_count() - writes_before;
    const auto& stats = stack->controller().stats();
    table.AddRow({StrFormat("%.0f%%", fraction * 100),
                  StrFormat("%" PRId64, lost),
                  StrFormat("%" PRIu64, repair_writes), bench::Ms(seconds)});
    rows.push_back(Json(Json::Object{
        {"divergence_fraction", Json(fraction)},
        {"entries_lost", Json(lost)},
        {"resync_writes", Json(static_cast<int64_t>(repair_writes))},
        {"resync_inserted", Json(static_cast<int64_t>(stats.resync_inserted))},
        {"resync_deleted", Json(static_cast<int64_t>(stats.resync_deleted))},
        {"resync_modified", Json(static_cast<int64_t>(stats.resync_modified))},
        {"resync_seconds", Json(seconds)},
    }));
    std::filesystem::remove_all(dir);
  }
  table.Print();
  std::printf(
      "\nshape: writes track the diff (0%% divergence => 0 writes), not the "
      "table size.\n\n");
  return Json(std::move(rows));
}

/// Experiment 3 (--corrupt): what the corruption defenses cost.  Two
/// deltas against the clean restore path: CRC verification of every
/// framed WAL record (vs. replaying the same records unframed), and
/// previous-generation snapshot fallback (vs. decoding the current
/// snapshot directly).
Result<Json> CorruptRecovery() {
  Banner("E-HA.3", "corruption: checksum + snapshot-fallback overhead");
  Table table({"ports", "framed", "unframed", "crc delta", "fallback",
               "fallback delta"});
  Json::Array rows;
  for (int ports : {500, 2000}) {
    std::string dir = FreshDir(StrFormat("corrupt_%d", ports));
    auto add_range = [](snvs::SnvsStack& stack, int from, int to) -> Status {
      for (int i = from; i < to; ++i) {
        NERPA_RETURN_IF_ERROR(stack.AddPort(StrFormat("p%d", i), i, "access",
                                            (i % 1024) + 1)
                                  .status());
      }
      return Status::Ok();
    };
    {
      snvs::SnvsOptions options;
      options.ha_dir = dir;
      NERPA_ASSIGN_OR_RETURN(auto stack, snvs::BuildSnvsStack(options));
      // Two checkpoint generations (snapshot.json.1 + wal.jsonl.1 must
      // reproduce snapshot.json for the fallback leg) plus a live WAL
      // segment so the replay hot path is actually exercised.
      NERPA_RETURN_IF_ERROR(add_range(*stack, 0, ports / 2));
      NERPA_RETURN_IF_ERROR(stack->Checkpoint());
      NERPA_RETURN_IF_ERROR(add_range(*stack, ports / 2, ports));
      NERPA_RETURN_IF_ERROR(stack->Checkpoint());
      NERPA_RETURN_IF_ERROR(add_range(*stack, ports, ports + ports / 2));
    }
    std::string wal_path = dir + "/wal.jsonl";
    std::string snap_path = dir + "/snapshot.json";

    Stopwatch framed_watch;
    NERPA_RETURN_IF_ERROR(
        ha::RecoverDatabase(snvs::SnvsSchema(), dir).status());
    double framed_seconds = framed_watch.ElapsedSeconds();

    // Same records as legacy unframed lines: the delta is pure CRC cost.
    std::string framed_wal;
    {
      std::ifstream in(wal_path, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      framed_wal = std::move(buffer).str();
    }
    std::string unframed_wal;
    for (size_t pos = 0; pos < framed_wal.size();) {
      size_t end = framed_wal.find('\n', pos);
      if (end == std::string::npos) end = framed_wal.size();
      std::string_view line(framed_wal.data() + pos, end - pos);
      size_t space = line.find(' ');
      if (!line.empty() && line[0] != '[' && line[0] != '{' &&
          space != std::string_view::npos) {
        line.remove_prefix(space + 1);
      }
      unframed_wal.append(line);
      unframed_wal.push_back('\n');
      pos = end + 1;
    }
    {
      std::ofstream out(wal_path, std::ios::trunc | std::ios::binary);
      out << unframed_wal;
    }
    Stopwatch unframed_watch;
    NERPA_RETURN_IF_ERROR(
        ha::RecoverDatabase(snvs::SnvsSchema(), dir).status());
    double unframed_seconds = unframed_watch.ElapsedSeconds();
    {
      std::ofstream out(wal_path, std::ios::trunc | std::ios::binary);
      out << framed_wal;
    }

    // Flip one byte mid-snapshot: the trailer checksum rejects it and
    // recovery falls back to snapshot.json.1 + wal.jsonl.1 + wal.jsonl.
    {
      std::ifstream in(snap_path, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      std::string snapshot = std::move(buffer).str();
      snapshot[snapshot.size() / 2] =
          snapshot[snapshot.size() / 2] == 'x' ? 'y' : 'x';
      std::ofstream out(snap_path, std::ios::trunc | std::ios::binary);
      out << snapshot;
    }
    Stopwatch fallback_watch;
    NERPA_ASSIGN_OR_RETURN(
        auto store, ha::DurableStore::Open(snvs::SnvsSchema(), dir));
    double fallback_seconds = fallback_watch.ElapsedSeconds();
    if (store->stats().snapshot_fallbacks != 1) {
      return Internal("corrupt snapshot did not trigger fallback recovery");
    }

    table.AddRow({StrFormat("%d", ports), bench::Ms(framed_seconds),
                  bench::Ms(unframed_seconds),
                  bench::Ms(framed_seconds - unframed_seconds),
                  bench::Ms(fallback_seconds),
                  bench::Ms(fallback_seconds - framed_seconds)});
    rows.push_back(Json(Json::Object{
        {"ports", Json(ports)},
        {"framed_restore_seconds", Json(framed_seconds)},
        {"unframed_restore_seconds", Json(unframed_seconds)},
        {"crc_verify_delta_seconds", Json(framed_seconds - unframed_seconds)},
        {"fallback_restore_seconds", Json(fallback_seconds)},
        {"fallback_delta_seconds", Json(fallback_seconds - framed_seconds)},
    }));
    std::filesystem::remove_all(dir);
  }
  table.Print();
  std::printf(
      "\nshape: both defenses cost a bounded additive delta, not a "
      "multiplier on restore time.\n\n");
  return Json(std::move(rows));
}

int Run(bool corrupt) {
  auto cold = ColdRestore();
  if (!cold.ok()) {
    std::fprintf(stderr, "cold restore: %s\n",
                 cold.status().ToString().c_str());
    return 1;
  }
  auto resync = Reconciliation();
  if (!resync.ok()) {
    std::fprintf(stderr, "reconciliation: %s\n",
                 resync.status().ToString().c_str());
    return 1;
  }
  Json doc(Json::Object{{"bench", Json("recovery")},
                        {"cold_restore", *cold},
                        {"reconciliation", *resync}});
  if (corrupt) {
    auto corrupted = CorruptRecovery();
    if (!corrupted.ok()) {
      std::fprintf(stderr, "corrupt recovery: %s\n",
                   corrupted.status().ToString().c_str());
      return 1;
    }
    doc.as_object().emplace("corrupt_recovery", *corrupted);
  }
  std::ofstream out("BENCH_recovery.json");
  out << doc.Dump(2) << "\n";
  std::printf("wrote BENCH_recovery.json\n");
  return out ? 0 : 1;
}

}  // namespace
}  // namespace nerpa

int main(int argc, char** argv) {
  bool corrupt = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--corrupt") corrupt = true;
  }
  return nerpa::Run(corrupt);
}
