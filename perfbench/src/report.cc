#include "report.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/thread_pool.h"

namespace perfbench {

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0 : sum() / static_cast<double>(values_.size());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Samples Samples::Scaled(const std::vector<double>& scales) const {
  Samples out;
  for (size_t i = 0; i < values_.size(); ++i) {
    size_t window = std::min<size_t>(windows_[i], scales.size() - 1);
    out.Add(values_[i] * scales[window]);
  }
  return out;
}

double Samples::Drift() const {
  size_t decile = values_.size() / 10;
  if (decile == 0) return 0;
  double first = std::accumulate(values_.begin(), values_.begin() + decile, 0.0);
  double last = std::accumulate(values_.end() - decile, values_.end(), 0.0);
  return first > 0 ? last / first - 1 : 0;
}

std::vector<double> Samples::DecileMeans() const {
  std::vector<double> means;
  size_t decile = values_.size() / 10;
  if (decile == 0) return means;
  for (size_t d = 0; d < 10; ++d) {
    auto from = values_.begin() + static_cast<std::ptrdiff_t>(d * decile);
    means.push_back(std::accumulate(from, from + decile, 0.0) / decile);
  }
  return means;
}

void Reference::Tick(uint64_t every) {
  if (++ticks_ % every == 0) Sample();
}

Reference::Reference(size_t workers)
    : pool_(workers > 0 ? std::make_unique<nerpa::ThreadPool>(workers)
                        : nullptr) {}

Reference::~Reference() = default;

double Reference::Sample() {
  // Twice, timing the second pass, so the stack's cache footprint just
  // before does not leak into the reading.
  constexpr int kCopies = 64;
  double us = 0;
  for (int pass = 0; pass < 2; ++pass) {
    int64_t start = nerpa::MonotonicNanos();
    std::unordered_map<uint64_t, uint64_t> map;
    uint64_t x = ++salt_;
    for (int i = 0; i < 2000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      map[x >> 20] = x;
    }
    uint64_t sum = 0;
    for (int i = 0; i < 2000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      auto it = map.find(x >> 20);
      if (it != map.end()) sum += it->second;
    }
    std::string text;
    for (int i = 0; i < 100; ++i) text += std::to_string(sum + i);
    // Frame-sized copies, as the packet path makes them.
    auto copies = [seed = x](int count) {
      std::vector<uint8_t> from(1518, static_cast<uint8_t>(seed));
      uint64_t total = 0;
      for (int i = 0; i < count; ++i) {
        std::vector<uint8_t> copy(from);
        copy[static_cast<size_t>(i)] ^= 1;
        total += copy[static_cast<size_t>(i) * 7];
        from.swap(copy);
      }
      return total;
    };
    if (pool_ == nullptr) {
      sum += copies(kCopies);
    } else {
      size_t tasks = pool_->threads();
      std::vector<uint64_t> totals(tasks);
      for (size_t t = 0; t < tasks; ++t) {
        uint64_t* slot = &totals[t];
        int count = kCopies / static_cast<int>(tasks);
        pool_->Submit([slot, count, &copies] { *slot = copies(count); });
      }
      pool_->WaitIdle();
      for (uint64_t total : totals) sum += total;
    }
    sink_ += text.size() + map.size() + sum;
    us = static_cast<double>(nerpa::MonotonicNanos() - start) / 1e3;
  }
  samples_.Add(us);
  return us;
}

std::vector<double> Reference::Scales() const {
  const std::vector<double>& times = samples_.values_;
  std::vector<double> scales(times.size() + 1, 1.0);
  for (size_t w = 0; w < scales.size() && !times.empty(); ++w) {
    // Window w lies between runs w-1 and w: take the five runs around it.
    size_t lo = std::min(w >= 3 ? w - 3 : 0, times.size() - 1);
    size_t hi = std::min(w + 2, times.size());
    std::vector<double> around(times.begin() + static_cast<std::ptrdiff_t>(lo),
                               times.begin() + static_cast<std::ptrdiff_t>(hi));
    std::sort(around.begin(), around.end());
    scales[w] = kNominalUs / around[around.size() / 2];
  }
  return scales;
}

void PrintReference(const Reference& reference) {
  const Samples& samples = reference.samples();
  std::printf(
      "reference: n=%zu p10=%.2fus p50=%.2fus p90=%.2fus (nominal %.0fus); "
      "the result line's times are scaled by it per window\n",
      samples.count(), samples.Quantile(0.1), samples.Quantile(0.5),
      samples.Quantile(0.9), Reference::kNominalUs);
}

void Outcome::Fail(std::string why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(std::move(why));  // first few
}

void Outcome::Add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void PrintLatency(const std::string& label, const Samples& samples,
                  uint64_t failed) {
  std::printf(
      "%-22s n=%zu failed=%llu (counted as missing) p50=%.3fus p90=%.3fus "
      "p99=%.3fus mean=%.3fus drift=%+.3f\n",
      label.c_str(), samples.count(), static_cast<unsigned long long>(failed),
      samples.Quantile(0.50), samples.Quantile(0.90), samples.Quantile(0.99),
      samples.mean(), samples.Drift());
  std::printf("%-22s decile means:", "");
  for (double mean : samples.DecileMeans()) std::printf(" %.2f", mean);
  std::printf("\n");
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? value : fallback;
}

}  // namespace

bool PrintEnvironment() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
  std::printf(
      "env: commit=%s source_sha256=%s cpu=\"%s\" nproc=%ld compiler=\"%s\" "
      "build=%s optimised=%s\n",
      EnvOr("PERFBENCH_COMMIT", "unknown").c_str(),
      EnvOr("PERFBENCH_SOURCE_SHA256", "unknown").c_str(), CpuModel().c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      optimised ? "yes" : "NO");
  return optimised;
}

void PrintResultLine(const Outcome& outcome) {
  std::string metrics;
  for (const Metric& metric : outcome.metrics) {
    if (!metrics.empty()) metrics += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    metrics += "\"" + metric.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
