// Unified retry vocabulary for every layer that re-attempts failed work:
// controller data-plane writes, OVSDB session heals, HA resync, and the
// gateway's monitor pump all used to carry their own hand-rolled backoff
// loops.  Two problems with that: the loops were unjittered (synchronized
// failures retry in lockstep — a thundering herd against whatever just
// came back), and each layer retried independently of the others, so one
// downstream outage amplified into a multiplicative retry storm.
//
// Two pieces replace those loops:
//
//  * Backoff — one call site's jittered exponential delay sequence.
//    Deterministic for a given seed (chaos soaks stay reproducible);
//    jitter spreads synchronized retriers across ±jitter_frac of the
//    nominal delay.
//
//  * RetryBudget — a per-subsystem token bucket refilled by *successes*:
//    each success deposits `ratio` tokens, each retry withdraws one.
//    While the subsystem is mostly healthy, retries are free; when the
//    downstream is hard-down, the budget drains and further retries are
//    refused (fail fast, surface the error, let anti-entropy or the
//    caller's own recovery own the repair).  This caps the retry
//    amplification factor at ~ratio no matter how many callers pile on.
//    Thread-safe — one budget is shared by all threads of a subsystem.
#ifndef NERPA_COMMON_RETRY_H_
#define NERPA_COMMON_RETRY_H_

#include <cstdint>
#include <mutex>

namespace nerpa {

/// Jittered exponential backoff schedule (one retry loop's policy).
struct BackoffPolicy {
  int64_t initial_nanos = 1'000'000;   // delay before the 2nd attempt
  double multiplier = 2.0;             // growth per attempt
  int64_t max_nanos = 100'000'000;     // delay cap
  double jitter_frac = 0.2;            // uniform in [1-j, 1+j] of nominal
};

/// A bounded retry loop's policy: total tries, and the delays between them.
struct RetryPolicy {
  int max_attempts = 1;
  BackoffPolicy backoff;
};

/// The delay iterator for one retry loop.  Not thread-safe (each loop
/// owns one); deterministic for a given (policy, seed).
class Backoff {
 public:
  Backoff(const BackoffPolicy& policy, uint64_t seed);

  /// The next delay in the schedule: nominal exponential value (advanced
  /// after sampling) scaled by the jitter draw.  Never negative.
  int64_t NextDelayNanos();

  /// Restarts the schedule from initial_nanos (e.g. after a success).
  void Reset();

 private:
  BackoffPolicy policy_;
  int64_t nominal_nanos_;
  uint64_t rng_state_;
};

/// Applies one jitter draw from `rng_state` (xorshift64*, advanced in
/// place) to `nominal_nanos`: uniform in [1-frac, 1+frac].  Exposed for
/// call sites that need a jittered interval without a full Backoff
/// schedule (e.g. circuit-breaker probe cooldowns).
int64_t JitterNanos(int64_t nominal_nanos, double frac, uint64_t* rng_state);

/// Token-style retry budget shared by one subsystem.
class RetryBudget {
 public:
  /// Starts full at `max_tokens`.  Each success deposits `ratio` tokens
  /// (capped at max); each permitted retry withdraws 1.  ratio 0.1 means
  /// sustained retries are capped at ~10% of the success rate.
  RetryBudget(double max_tokens, double ratio);

  /// Deposits for one successful operation.
  void RecordSuccess();

  /// Withdraws one token if available; false = budget exhausted, the
  /// caller must not retry (counted in exhausted()).
  bool TryWithdraw();

  double tokens() const;
  uint64_t exhausted() const;

 private:
  mutable std::mutex mu_;
  const double max_tokens_;
  const double ratio_;
  double tokens_;
  uint64_t exhausted_ = 0;
};

}  // namespace nerpa

#endif  // NERPA_COMMON_RETRY_H_
