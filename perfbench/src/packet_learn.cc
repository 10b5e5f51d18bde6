// packet_learn: frames go straight to Switch::ProcessPacket from one
// generator thread; a frame from a host that moved raises a MacLearn
// digest, and Controller::SyncDataPlaneNotifications then runs the
// digest-driven reverse path (MaxSeq re-learn, SMac/Dmac rewrite) on the
// single device without a pool hand-off.
#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "common/clock.h"
#include "nerpa/bindings.h"
#include "workloads.h"

namespace perfbench {

using nerpa::MonotonicNanos;
using nerpa::Status;

namespace {

constexpr uint16_t kPorts = 256;
constexpr int kVlans = 16;
constexpr int kHosts = 4096;
constexpr int kLearnBatch = 256;  // set-up frames per digest sync
constexpr size_t kWarmupFrames = 100000;
constexpr uint64_t kBroadcast = 0xffffffffffffULL;

/// Simple IMIX: 64, 594 and 1518 bytes in a 7:4:1 ratio.
constexpr uint16_t kImix[12] = {64, 64, 64, 64, 64, 64, 64,
                                594, 594, 594, 594, 1518};

struct Frame {
  enum class Kind : uint8_t { kUnicast, kBroadcast, kMove };
  Kind kind = Kind::kUnicast;
  uint16_t src = 0;      // host
  uint16_t dst = 0;      // host (unicast and move)
  uint16_t ingress = 0;  // port the frame enters on
  uint16_t egress = 0;   // expected output port (unicast and move)
  uint16_t size = 64;
};

uint16_t VlanOfPort(uint16_t port) { return (port - 1) % kVlans + 1; }
uint16_t VlanOfHost(int host) { return host % kVlans + 1; }
uint64_t MacOfHost(int host) { return 0x0a0000000000ULL | (host + 1); }

/// The seeded frame generator; it moves hosts in its own location table,
/// so the expected egress port of every frame is known in advance.
class Hosts {
 public:
  explicit Hosts(uint64_t seed) : rng_(seed), location_(kHosts) {
    for (int vlan = 1; vlan <= kVlans; ++vlan) {
      for (uint16_t port = 1; port <= kPorts; ++port) {
        if (VlanOfPort(port) == vlan) vlan_ports_[vlan].push_back(port);
      }
    }
    // 16 hosts per port: host h is the (h / 16)-th host of its VLAN.
    for (int host = 0; host < kHosts; ++host) {
      const auto& ports = vlan_ports_[VlanOfHost(host)];
      location_[host] = ports[static_cast<size_t>(host / kVlans) % ports.size()];
    }
  }

  uint16_t location(int host) const { return location_[host]; }

  /// ~93% unicast, 5% broadcast, 2% from a host that just moved.
  Frame Next() {
    Frame frame;
    frame.size = kImix[Below(12)];
    double r = std::uniform_real_distribution<double>(0, 1)(rng_);
    if (r < 0.02) {
      frame.kind = Frame::Kind::kMove;
      frame.src = static_cast<uint16_t>(Below(kHosts));
      const auto& ports = vlan_ports_[VlanOfHost(frame.src)];
      uint16_t to;
      do {
        to = ports[Below(ports.size())];
      } while (to == location_[frame.src]);
      location_[frame.src] = to;
      frame.ingress = to;
    } else {
      frame.kind = r < 0.07 ? Frame::Kind::kBroadcast : Frame::Kind::kUnicast;
      frame.src = static_cast<uint16_t>(Below(kHosts));
      frame.ingress = location_[frame.src];
    }
    if (frame.kind != Frame::Kind::kBroadcast) {
      // A destination in the same VLAN, attached to another port.
      do {
        frame.dst = static_cast<uint16_t>(Below(kHosts / kVlans) * kVlans +
                                          (VlanOfHost(frame.src) - 1));
      } while (location_[frame.dst] == frame.ingress);
      frame.egress = location_[frame.dst];
    }
    return frame;
  }

 private:
  size_t Below(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  std::mt19937_64 rng_;
  std::vector<uint16_t> location_;
  std::vector<uint16_t> vlan_ports_[kVlans + 1];
};

bool SameFrames(const std::vector<p4::PacketOut>& out,
                const net::Packet& frame) {
  for (const p4::PacketOut& copy : out) {
    if (copy.packet != frame) return false;
  }
  return true;
}

/// The stack plus everything needed to drive and check it.
class Bench {
 public:
  Bench(bool trace, Outcome* outcome)
      : outcome_(outcome),
        tracer_(trace ? std::make_unique<Tracer>() : nullptr) {}

  /// Builds the stack, adds the ports (one transaction each) and learns
  /// every host (one broadcast each, one digest sync per batch).
  bool SetUp(const Hosts& hosts) {
    shadow_.reset();
    fixture_.reset();
    auto built = BuildFixture(1, tracer_.get());
    if (!built.ok()) return Failed("set-up: " + built.status().ToString());
    fixture_ = std::move(built).value();
    if (tracer_ != nullptr) {
      tracer_->set_phase(Phase::kSetup);
      auto created = Shadow::Create(*fixture_->stack, tracer_.get());
      if (!created.ok()) return Failed("shadow: " + created.status().ToString());
      shadow_ = std::move(created).value();
    }
    binding_ = fixture_->stack->bindings().FindDigest("MacLearn");
    if (binding_ == nullptr) return Failed("set-up: no MacLearn digest");
    Runner runner(fixture_.get(), shadow_.get(), tracer_.get(), outcome_);
    for (uint16_t port = 1; port <= kPorts; ++port) {
      auto build = [port](ovsdb::TxnBuilder& txn) {
        txn.Insert("Port",
                   {
                       {"name", ovsdb::Datum::String("p" + std::to_string(port))},
                       {"port", ovsdb::Datum::Integer(port)},
                       {"vlan_mode", ovsdb::Datum::String("access")},
                       {"tag", ovsdb::Datum::Integer(VlanOfPort(port))},
                       {"trunks", ovsdb::Datum::Set({})},
                   });
      };
      if (runner.Run(build, 1, tracer_ != nullptr) < 0) {
        return Failed("set-up: adding a port failed");
      }
    }
    FailureWatch watch(&fixture_->controller());
    p4::Switch& sw = *fixture_->switches[0];
    for (int first = 0; first < kHosts; first += kLearnBatch) {
      if (tracer_ != nullptr) tracer_->BeginChange();
      int64_t seq = fixture_->controller().digest_seq();
      std::vector<dlog::Row> rows;
      Status synced;
      {
        Scope change(tracer_.get(), Kind::kChange);
        for (int host = first; host < first + kLearnBatch; ++host) {
          uint16_t port = hosts.location(host);
          Scope packet(tracer_.get(), Kind::kP4Packet);
          auto out = sw.ProcessPacket(
              p4::PacketIn{port, MakeFrame(kBroadcast, MacOfHost(host), 64)});
          if (!out.ok()) return Failed("set-up: " + out.status().ToString());
          rows.push_back(nerpa::DigestToDlog(
              *binding_,
              p4::DigestMessage{"MacLearn",
                                {port, VlanOfHost(host), MacOfHost(host)}},
              "sw0", seq++));
        }
        Scope sync(tracer_.get(), Kind::kDigestSync);
        synced = fixture_->controller().SyncDataPlaneNotifications();
      }
      if (watch.Failed(synced)) return Failed("set-up: learning hosts failed");
      if (shadow_ != nullptr) {
        std::vector<std::string> expected;
        Status replayed =
            shadow_->ReplayInputs(binding_->relation, std::move(rows), &expected);
        if (!replayed.ok()) return Failed("shadow: " + replayed.ToString());
        CheckWrites(expected, "set-up learn");
        tracer_->EndChange();
      }
    }
    if (sw.GetTable("Dmac")->size() != static_cast<size_t>(kHosts)) {
      return Failed("set-up: not every host was learned");
    }
    return true;
  }

  /// Runs `frames`; with `measure`, records samples and counters.
  void Run(const std::vector<Frame>& frames, size_t first, int64_t deadline,
           bool measure, size_t* stopped_at) {
    p4::Switch& sw = *fixture_->switches[0];
    FailureWatch watch(&fixture_->controller());
    size_t i = first;
    for (; i < frames.size(); ++i) {
      if (measure && MonotonicNanos() >= deadline) break;
      if (measure && tracer_ == nullptr) reference_.Tick(512);  // ~5 ms
      const Frame& frame = frames[i];
      uint64_t dst = frame.kind == Frame::Kind::kBroadcast ? kBroadcast
                                                           : MacOfHost(frame.dst);
      net::Packet packet = MakeFrame(dst, MacOfHost(frame.src), frame.size);
      uint64_t digests = sw.stats().digests;
      if (frame.kind == Frame::Kind::kMove) {
        Learn(frame, packet, measure, &watch);
        continue;
      }
      int64_t start = MonotonicNanos();
      auto out = sw.ProcessPacket(p4::PacketIn{frame.ingress, packet});
      int64_t end = MonotonicNanos();
      if (measure) ++outcome_->attempted;
      if (!out.ok()) {
        if (measure) {
          ++outcome_->failed;
          ++packet_failed_;
        }
        continue;
      }
      if (sw.stats().digests != digests) {
        outcome_->Fail("a frame from a learned host raised a digest");
      }
      CheckForwarded(frame, packet, *out);
      if (!measure) continue;
      double ns = static_cast<double>(end - start);
      packet_us_.Add(ns / 1e3, reference_.window());
      if (frame.kind == Frame::Kind::kUnicast && frame.size == kImix[0]) {
        small_us_.Add(ns / 1e3, reference_.window());
      }
      packet_ns_ += ns;
      packets_.frames++;
      packets_.total_ns += ns;
      packets_.replicas += out->size();
      packets_.floods += frame.kind == Frame::Kind::kBroadcast;
    }
    *stopped_at = i;
  }

  Tracer* tracer() { return tracer_.get(); }
  Reference& reference() { return reference_; }
  Fixture& fixture() { return *fixture_; }
  Shadow* shadow() { return shadow_.get(); }
  const Samples& packet_us() const { return packet_us_; }
  const Samples& small_us() const { return small_us_; }
  const Samples& learn_us() const { return learn_us_; }
  const Samples& traced_us() const { return traced_us_; }
  const Samples& untraced_us() const { return untraced_us_; }
  double packet_ns() const { return packet_ns_; }
  uint64_t packet_failed() const { return packet_failed_; }
  uint64_t learn_failed() const { return learn_failed_; }
  uint64_t learns() const { return learns_; }
  uint64_t interned() const { return interned_; }
  PacketCounters& packets() { return packets_; }

 private:
  bool Failed(std::string why) {
    outcome_->Fail(std::move(why));
    return false;
  }

  void CheckWrites(const std::vector<std::string>& expected, const char* what) {
    if (fixture_->timing[0]->TakeWrites() != expected) {
      outcome_->Fail(std::string(what) +
                     ": writes differ from the shadow engine's output");
    }
  }

  void CheckForwarded(const Frame& frame, const net::Packet& packet,
                      const std::vector<p4::PacketOut>& out) {
    if (frame.kind == Frame::Kind::kBroadcast) {
      std::vector<uint64_t> want;
      for (uint16_t port = VlanOfHost(frame.src); port <= kPorts;
           port += kVlans) {
        if (port != frame.ingress) want.push_back(port);
      }
      std::vector<uint64_t> got;
      for (const p4::PacketOut& copy : out) got.push_back(copy.port);
      std::sort(got.begin(), got.end());
      if (got != want || !SameFrames(out, packet)) {
        outcome_->Fail("a broadcast did not leave on every other port of "
                       "its VLAN");
      }
      return;
    }
    if (out.size() != 1 || out[0].port != frame.egress ||
        out[0].packet != packet) {
      outcome_->Fail("a unicast frame did not leave exactly once on its "
                     "destination's port");
    }
  }

  void Learn(const Frame& frame, const net::Packet& packet, bool measure,
             FailureWatch* watch) {
    p4::Switch& sw = *fixture_->switches[0];
    bool traced = tracer_ != nullptr && measure && learns_ % 2 == 0;
    if (measure) ++learns_;
    uint64_t digests = sw.stats().digests;
    int64_t seq = fixture_->controller().digest_seq();
    if (traced) tracer_->BeginChange();
    nerpa::Result<std::vector<p4::PacketOut>> out =
        std::vector<p4::PacketOut>{};
    Status synced;
    int64_t start = 0, sent = 0, end = 0;
    uint64_t interned = shadow_ != nullptr ? InternedValues() : 0;
    {
      Scope change(tracer_.get(), Kind::kChange);
      start = MonotonicNanos();
      {
        Scope span(tracer_.get(), Kind::kP4Packet);
        out = sw.ProcessPacket(p4::PacketIn{frame.ingress, packet});
      }
      sent = MonotonicNanos();
      Scope span(tracer_.get(), Kind::kDigestSync);
      synced = fixture_->controller().SyncDataPlaneNotifications();
      end = MonotonicNanos();
    }
    if (shadow_ != nullptr && measure) {
      interned_ += InternedValues() - interned;
    }
    bool failed = watch->Failed(synced) || !out.ok();
    if (sw.stats().digests != digests + 1) {
      outcome_->Fail("a moved host's frame did not raise exactly one digest");
    }
    if (out.ok()) CheckForwarded(frame, packet, *out);
    const p4::TableEntry* entry = sw.GetTable("Dmac")->Lookup(
        {VlanOfHost(frame.src), MacOfHost(frame.src)});
    if (entry == nullptr || entry->action_args.empty() ||
        entry->action_args[0] != frame.ingress) {
      outcome_->Fail("after a re-learn the Dmac entry does not point at the "
                     "host's new port");
    }
    if (shadow_ != nullptr) {
      std::vector<dlog::Row> rows = {nerpa::DigestToDlog(
          *binding_,
          p4::DigestMessage{"MacLearn", {frame.ingress, VlanOfHost(frame.src),
                                         MacOfHost(frame.src)}},
          "sw0", seq)};
      std::vector<std::string> expected;
      Status replayed = shadow_->ReplayInputs(binding_->relation,
                                              std::move(rows),
                                              traced ? &expected : nullptr);
      if (!replayed.ok()) outcome_->Fail("shadow: " + replayed.ToString());
      if (traced) CheckWrites(expected, "re-learn");
    }
    if (traced) tracer_->EndChange();
    if (!measure) return;
    ++outcome_->attempted;
    if (failed) {
      ++outcome_->failed;
      ++learn_failed_;
      return;
    }
    double us = static_cast<double>(end - start) / 1e3;
    learn_us_.Add(us, reference_.window());
    (traced ? traced_us_ : untraced_us_).Add(us);
    packets_.frames++;
    packets_.total_ns += static_cast<double>(sent - start);
    packets_.replicas += out->size();
    packets_.digests++;
  }

  Outcome* outcome_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<Fixture> fixture_;
  std::unique_ptr<Shadow> shadow_;
  const nerpa::DigestBinding* binding_ = nullptr;
  Reference reference_;
  Samples packet_us_, small_us_, learn_us_, traced_us_, untraced_us_;
  double packet_ns_ = 0;
  uint64_t packet_failed_ = 0;
  uint64_t learn_failed_ = 0;
  uint64_t learns_ = 0;
  uint64_t interned_ = 0;  // intern-pool growth inside timed live learns
  PacketCounters packets_;
};

}  // namespace

Outcome RunPacketLearn(const Options& options) {
  Outcome outcome;
  Bench bench(options.trace, &outcome);
  Samples setup_s, raw_setup_s;
  Reference& reference = bench.reference();
  const Hosts initial(options.seed);
  auto set_up = [&]() {
    double before = reference.Sample();
    int64_t start = MonotonicNanos();
    if (!bench.SetUp(initial)) return false;
    double seconds = static_cast<double>(MonotonicNanos() - start) * 1e-9;
    double after = reference.Sample();
    raw_setup_s.Add(seconds);
    setup_s.Add(seconds * Reference::kNominalUs / ((before + after) / 2));
    return true;
  };
  for (int i = 0; i < (options.trace ? 1 : kSetupsBefore); ++i) {
    if (!set_up()) return outcome;
  }
  Tracer* tracer = bench.tracer();
  if (tracer != nullptr) tracer->set_phase(Phase::kTimed);

  // Inputs: warm-up frames, then (sized from the warm-up rate) the timed
  // frames, all generated before timing starts.
  Hosts hosts(options.seed);
  std::vector<Frame> frames;
  for (size_t i = 0; i < kWarmupFrames; ++i) frames.push_back(hosts.Next());
  size_t stopped = 0;
  int64_t warm_start = MonotonicNanos();
  bench.Run(frames, 0, 0, false, &stopped);
  double rate = static_cast<double>(frames.size()) /
                (static_cast<double>(MonotonicNanos() - warm_start) * 1e-9);
  double rss = PeakRssMib();  // the loaded stack, as in the management runs
  size_t first_timed = frames.size();
  // Headroom for a machine that runs faster than it did in the warm-up.
  size_t timed = static_cast<size_t>(rate * options.seconds * 2.5) + 100;
  for (size_t i = 0; i < timed; ++i) frames.push_back(hosts.Next());
  std::printf("inputs: seed=%llu warm-up=%zu timed<=%zu\n",
              static_cast<unsigned long long>(options.seed), first_timed,
              timed);

  Fixture& fixture = bench.fixture();
  PrintResidentState("start", fixture);
  LayerInputs layers;
  layers.controller_before = fixture.controller().stats();
  if (tracer != nullptr) {
    layers.engine_before = fixture.controller().engine().GetStats();
    SnapshotClients(fixture, &layers.write_calls, &layers.updates,
                    &layers.multicast_calls, &layers.offthread);
  }
  int64_t deadline =
      MonotonicNanos() + static_cast<int64_t>(options.seconds * 1e9);
  bench.Run(frames, first_timed, deadline, true, &stopped);
  if (stopped == frames.size()) {
    std::printf("note: inputs ran out before %.0fs elapsed\n", options.seconds);
  }
  PrintResidentState("end", fixture);
  std::printf("rss: process peak %.1f MiB after the timed phase (inputs and "
              "samples included)\n",
              PeakRssMib());
  layers.controller_after = fixture.controller().stats();
  if (tracer != nullptr) {
    layers.engine_after = fixture.controller().engine().GetStats();
    uint64_t w, u, m, o;
    SnapshotClients(fixture, &w, &u, &m, &o);
    layers.write_calls = w - layers.write_calls;
    layers.updates = u - layers.updates;
    layers.multicast_calls = m - layers.multicast_calls;
    layers.offthread = o - layers.offthread;
  }

  // The rest of the set-up samples, half a minute after the first ones (the
  // live stack is no longer needed).
  if (!options.trace) {
    for (int i = 0; i < kSetupsAfter; ++i) {
      if (!set_up()) return outcome;
    }
  }

  PrintLatency("packet", bench.packet_us(), bench.packet_failed());
  PrintLatency("packet_64B_unicast", bench.small_us(), 0);
  PrintLatency("learn", bench.learn_us(), bench.learn_failed());
  double packets_per_s =
      bench.packet_ns() > 0
          ? static_cast<double>(bench.packet_us().count()) /
                (bench.packet_ns() * 1e-9)
          : 0;
  std::printf("packets_per_s = %.1f 1/s, packet_p50_us = %.3f us, "
              "packet_p99_us = %.3f us (n=%zu)\n",
              packets_per_s, bench.packet_us().Quantile(0.5),
              bench.packet_us().Quantile(0.99), bench.packet_us().count());
  std::printf("learn_p50_us = %.3f us, learn_p99_us = %.3f us (n=%zu)\n",
              bench.learn_us().Quantile(0.5), bench.learn_us().Quantile(0.99),
              bench.learn_us().count());
  std::printf("failed_ops_ratio = %.6f (%llu of %llu)\n",
              outcome.attempted == 0
                  ? 0
                  : static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  std::printf("setup_s: n=%zu median=%.4fs; rss_mib = %.1f MiB (loaded)\n",
              raw_setup_s.count(), raw_setup_s.Quantile(0.5), rss);

  if (!options.trace) {
    PrintReference(reference);
    std::vector<double> scales = reference.Scales();
    outcome.Add("setup_s", setup_s.Quantile(0.5), "s");
    // The median of all frames sits on the edge between IMIX size
    // classes; the smallest unicast frame is the per-packet cost.
    outcome.Add("op_p50_us", bench.small_us().Scaled(scales).Quantile(0.5),
                "us");
    outcome.Add("side_p50_us", bench.learn_us().Scaled(scales).Quantile(0.5),
                "us");
    outcome.Add("rss_mib", rss, "MiB");
    return outcome;
  }
  layers.tracer = tracer;
  layers.shadow = bench.shadow();
  layers.timed_changes = bench.learns();
  layers.interned = bench.interned();
  layers.packets = bench.packets();
  layers.traced_change_us = bench.traced_us().mean();
  layers.untraced_change_us = bench.untraced_us().mean();
  AddLayerMetrics(layers, &outcome);
  WriteTrace(options, *tracer);
  return outcome;
}

}  // namespace perfbench
