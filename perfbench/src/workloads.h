// The benchmark's workloads.  Each builds its inputs from the seed, sets
// the stack up, runs an untimed warm-up, measures for options.seconds,
// checks the outputs and returns its metrics: the end-to-end set when
// options.trace is off, the per-layer set when it is on.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "fixture.h"
#include "report.h"

namespace perfbench {

/// Two switches, 2,000 resident ports and 64 ACL rules; single-row
/// management changes (retag 40%, delete 25%, add 25%, ACL 10%).
Outcome RunPortChurn(const Options& options);

/// Two switches, 2,000 resident ports; alternating transactions that insert
/// and then delete a block of 1,000 ports.
Outcome RunBulkReconfig(const Options& options);

/// One switch, 256 access ports on 16 VLANs, 4,096 learned hosts; IMIX
/// frames through Switch::ProcessPacket with 5% floods and 2% host moves.
Outcome RunPacketLearn(const Options& options);

/// Set-ups timed per untraced run, before and after the timed phase;
/// setup_s is the median of all of them.
inline constexpr int kSetupsBefore = 6;
inline constexpr int kSetupsAfter = 5;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
