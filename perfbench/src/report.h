// Sample statistics, the machine-speed reference, the environment stamp and
// the result line shared by every workload of the benchmark.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace nerpa {
class ThreadPool;
}

namespace perfbench {

/// Latency samples of one operation class, in the order they were taken
/// (the order matters for the drift check).
class Samples {
 public:
  /// `window` is Reference::window() when the value was taken; values that
  /// are never scaled leave it 0.
  void Add(double value, uint32_t window = 0) {
    values_.push_back(value);
    windows_.push_back(window);
  }
  /// The values at nominal machine speed: each times scales[its window].
  Samples Scaled(const std::vector<double>& scales) const;
  size_t count() const { return values_.size(); }
  double sum() const;
  double mean() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// Last-decile mean over first-decile mean, minus 1: a workload whose
  /// state grows during the run shows up as a drift away from 0.
  double Drift() const;
  /// Mean of each tenth of the samples, in order (empty below 10 samples).
  std::vector<double> DecileMeans() const;

 private:
  friend class Reference;

  std::vector<double> values_;
  std::vector<uint32_t> windows_;
};

/// The machine-speed reference.  This VM's speed swings by up to 2x within
/// seconds and by 20-30% between runs (busy neighbours on shared cores), far
/// more than any change worth gating.  A fixed routine of std-only hashing,
/// allocation, formatting and frame-sized copies runs between the
/// workload's operations, every so many of them (so it samples the machine
/// with the operations' weighting), and sees the same swings.  The result
/// line reports every time at a nominal speed: each operation's time is
/// multiplied by kNominalUs over the median routine time of the five runs
/// around it.  The report prints the raw figures.
class Reference {
 public:
  static constexpr double kNominalUs = 200;

  /// With `workers` > 0 the frame copies run as that many tasks on a
  /// nerpa::ThreadPool, the way the controller hands each device's writes
  /// to its dispatch pool, so the routine also pays the thread wake-ups
  /// that the multi-device workloads pay (and that a busy host slows most).
  explicit Reference(size_t workers = 0);
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Counts one operation; runs the routine on every `every`-th.
  void Tick(uint64_t every);
  /// Runs the routine now; returns its time in µs.
  double Sample();
  /// The window an operation taken now falls in (routine runs so far).
  uint32_t window() const { return static_cast<uint32_t>(samples_.count()); }
  /// Per window: kNominalUs over the median routine time around it.
  std::vector<double> Scales() const;
  const Samples& samples() const { return samples_; }

 private:
  std::unique_ptr<nerpa::ThreadPool> pool_;
  Samples samples_;
  uint64_t ticks_ = 0;
  uint64_t salt_ = 0;
  size_t sink_ = 0;  // keeps the routine's result observable
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What every workload returns to main().
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable reasons for correctness failures (printed, not part of
  /// the result line).
  std::vector<std::string> errors;

  void Fail(std::string why);
  void Add(std::string name, double value, std::string unit);
};

/// Prints "<label>: n=<count> failed=<failed> p50=.. p90=.. p99=.. mean=..
/// drift=.." in microseconds, then the decile means.
void PrintLatency(const std::string& label, const Samples& samples,
                  uint64_t failed);

/// Prints the reference's sample count and spread.
void PrintReference(const Reference& reference);

/// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMib();

/// The environment stamp: commit, source digest, CPU model, nproc,
/// compiler and build type.  Returns false when the build is not
/// optimised (the caller refuses to measure).
bool PrintEnvironment();

/// The last line of stdout: {"correct", "attempted", "failed", "metrics"}.
void PrintResultLine(const Outcome& outcome);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
