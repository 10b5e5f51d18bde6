// The data-plane -> control-plane feedback loop (§4.2) in slow motion:
// every digest, control-plane transaction, and table write involved in MAC
// learning, including a station move handled by most-recent-wins.
//
//   $ ./build/examples/mac_learning
#include <cstdio>

#include "snvs/snvs.h"

using namespace nerpa;

namespace {

void DumpLearningState(snvs::SnvsStack& stack) {
  std::printf("    SMac (learn suppression):\n");
  for (const p4::TableEntry* entry : stack.device().GetTable("SMac")->Entries()) {
    std::printf("      %s\n", entry->ToString().c_str());
  }
  std::printf("    Dmac (unicast forwarding):\n");
  for (const p4::TableEntry* entry : stack.device().GetTable("Dmac")->Entries()) {
    std::printf("      %s\n", entry->ToString().c_str());
  }
  auto learns = stack.controller().engine().Dump("MacLearn");
  std::printf("    MacLearn input relation: %zu rows (keyed on vlan and "
              "mac: the newest digest replaces the old row)\n",
              learns.ok() ? learns->size() : 0);
}

}  // namespace

int main() {
  auto stack_result = snvs::BuildSnvsStack();
  if (!stack_result.ok()) {
    std::fprintf(stderr, "%s\n", stack_result.status().ToString().c_str());
    return 1;
  }
  snvs::SnvsStack& stack = **stack_result;
  (void)stack.AddPort("p1", 1, "access", 10);
  (void)stack.AddPort("p2", 2, "access", 10);
  (void)stack.AddPort("p3", 3, "access", 10);

  net::Mac a(0, 0, 0, 0, 0, 0xAA), b(0, 0, 0, 0, 0, 0xBB);
  net::Packet a_to_b = net::MakeEthernetFrame(b, a, 0x0800, {1});

  std::printf("1. A talks on port 1.  SMac misses -> the default action\n"
              "   raises a MacLearn digest; the controller turns it into an\n"
              "   input-relation insert and the rules derive SMac + Dmac\n"
              "   entries incrementally:\n");
  auto out = stack.InjectPacket(0, 1, a_to_b);
  if (!out.ok()) return 1;
  std::printf("   packet flooded to %zu ports (unknown destination)\n",
              out->size());
  DumpLearningState(stack);

  std::printf("\n2. The same frame again: SMac now hits (no digest), and\n"
              "   the destination is still unknown, so it floods again:\n");
  out = stack.InjectPacket(0, 1, a_to_b);
  if (!out.ok()) return 1;
  std::printf("   flooded to %zu ports, digests so far: %llu\n", out->size(),
              static_cast<unsigned long long>(
                  stack.controller().stats().digests));

  std::printf("\n3. A moves to port 3 and talks.  The (vlan, mac, port) key\n"
              "   misses SMac -> new digest replaces A's MacLearn row -> both\n"
              "   entries migrate (watch the Forward argument change):\n");
  out = stack.InjectPacket(0, 3, a_to_b);
  if (!out.ok()) return 1;
  DumpLearningState(stack);

  std::printf("\n4. B replies to A: unicast straight to port 3:\n");
  out = stack.InjectPacket(
      0, 2, net::MakeEthernetFrame(a, b, 0x0800, {2}));
  if (!out.ok() || out->empty()) return 1;
  std::printf("   delivered to port %llu\n",
              static_cast<unsigned long long>((*out)[0].port));

  const auto& stats = stack.controller().stats();
  std::printf("\ntotals: %llu digests, %llu dlog transactions, %llu entry "
              "inserts, %llu entry deletes\n",
              static_cast<unsigned long long>(stats.digests),
              static_cast<unsigned long long>(stats.dlog_txns),
              static_cast<unsigned long long>(stats.entries_inserted),
              static_cast<unsigned long long>(stats.entries_deleted));
  return 0;
}
