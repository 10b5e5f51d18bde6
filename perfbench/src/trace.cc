#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/clock.h"

namespace perfbench {

namespace {

/// Spans of this many traced changes per phase go into the trace file.
constexpr uint32_t kArchivedChanges = 2048;

bool IsReplayed(Kind kind) {
  return kind == Kind::kOvsdbTxn || kind == Kind::kRowConvert ||
         kind == Kind::kDlogInsert || kind == Kind::kDlogDelete ||
         kind == Kind::kEntryConvert;
}

bool IsLiveOpaque(Kind kind) {
  return kind == Kind::kChange || kind == Kind::kDigestSync;
}

std::string EntryText(const p4::Update& update) {
  const char* tag = update.type == p4::UpdateType::kDelete   ? "D|"
                    : update.type == p4::UpdateType::kInsert ? "I|"
                                                             : "U|";
  return tag + update.entry.ToString();
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kChange: return "change";
    case Kind::kDigestSync: return "nerpa.digest_sync";
    case Kind::kP4Packet: return "p4.packet";
    case Kind::kP4Write: return "p4.write";
    case Kind::kP4Multicast: return "p4.multicast";
    case Kind::kOvsdbTxn: return "ovsdb.txn";
    case Kind::kOvsdbCapture: return "ovsdb.capture";
    case Kind::kRowConvert: return "nerpa.row_convert";
    case Kind::kDlogInsert: return "dlog.insert_commit";
    case Kind::kDlogDelete: return "dlog.delete_commit";
    case Kind::kEntryConvert: return "nerpa.entry_convert";
    case Kind::kCount: break;
  }
  return "?";
}

// --- TimingClient ---

void TimingClient::Record(Kind kind, int64_t start, int64_t end) {
  bool offthread = std::this_thread::get_id() != tracer_->generator();
  if (offthread) ++offthread_calls_;
  Span span;
  span.kind = kind;
  span.start = start;
  span.end = end;
  span.parent = tracer_->current_parent();
  span.thread = offthread ? thread_tag_ : 0;
  spans_.push_back(span);
}

nerpa::Status TimingClient::Write(const std::vector<p4::Update>& updates) {
  if (tracer_ == nullptr || !tracer_->on()) {
    return p4::RuntimeClient::Write(updates);
  }
  int64_t start = nerpa::MonotonicNanos();
  nerpa::Status status = p4::RuntimeClient::Write(updates);
  Record(Kind::kP4Write, start, nerpa::MonotonicNanos());
  ++write_calls_;
  updates_ += updates.size();
  for (const p4::Update& update : updates) writes_.push_back(EntryText(update));
  return status;
}

nerpa::Status TimingClient::SetMulticastGroup(uint32_t group,
                                              std::vector<uint64_t> ports) {
  if (tracer_ == nullptr || !tracer_->on()) {
    return p4::RuntimeClient::SetMulticastGroup(group, std::move(ports));
  }
  std::string text = "M|" + std::to_string(group) + "|";
  for (uint64_t port : ports) text += std::to_string(port) + ",";
  int64_t start = nerpa::MonotonicNanos();
  nerpa::Status status =
      p4::RuntimeClient::SetMulticastGroup(group, std::move(ports));
  Record(Kind::kP4Multicast, start, nerpa::MonotonicNanos());
  ++multicast_calls_;
  writes_.push_back(std::move(text));
  return status;
}

std::vector<std::string> TimingClient::TakeWrites() {
  std::vector<std::string> out = std::move(writes_);
  writes_.clear();
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Span> TimingClient::TakeSpans() {
  std::vector<Span> out = std::move(spans_);
  spans_.clear();
  return out;
}

// --- Tracer ---

Tracer::Tracer() : generator_(std::this_thread::get_id()) {}

void Tracer::BeginChange() {
  spans_.clear();
  open_.clear();
  in_change_ = true;
  parent_.store(-1, std::memory_order_release);
  on_.store(true, std::memory_order_release);
}

int32_t Tracer::Parent() const {
  if (!open_.empty()) return open_.back();
  return spans_.empty() ? -1 : 0;  // the change's root span
}

int32_t Tracer::Open(Kind kind) {
  Span span;
  span.kind = kind;
  span.parent = Parent();
  span.change = change_id_;
  span.start = nerpa::MonotonicNanos();
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  parent_.store(index, std::memory_order_release);
  return index;
}

void Tracer::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end = nerpa::MonotonicNanos();
  open_.pop_back();
  parent_.store(Parent(), std::memory_order_release);
}

void Tracer::AddSpan(Kind kind, int64_t start, int64_t end) {
  if (!in_change_) return;
  Span span;
  span.kind = kind;
  span.start = start;
  span.end = end;
  span.parent = Parent();
  span.change = change_id_;
  spans_.push_back(span);
}

void Tracer::EndChange() {
  on_.store(false, std::memory_order_release);
  in_change_ = false;
  for (TimingClient* client : clients_) {
    for (Span span : client->TakeSpans()) {
      span.change = change_id_;
      spans_.push_back(span);
    }
  }
  // Self time: duration minus the union of the direct children's
  // intervals, clipped to the parent (replayed spans are parented to the
  // change but run after it, so they cover none of it).
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(span.parent)];
    int64_t lo = std::max(span.start, parent.start);
    int64_t hi = std::min(span.end, parent.end);
    if (hi > lo) children[static_cast<size_t>(span.parent)].emplace_back(lo, hi);
  }
  size_t phase = static_cast<size_t>(phase_);
  double opaque = 0;
  double replayed = 0;
  double change_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0;
    int64_t reach = INT64_MIN;
    for (const auto& [lo, hi] : intervals) {
      int64_t from = std::max(lo, reach);
      if (hi > from) covered += static_cast<double>(hi - from);
      reach = std::max(reach, hi);
    }
    double duration = static_cast<double>(span.end - span.start);
    double self = duration - covered;
    KindTotals& totals = totals_[phase][static_cast<size_t>(span.kind)];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += self;
    if (IsLiveOpaque(span.kind)) opaque += self;
    if (IsReplayed(span.kind)) replayed += self;
    if (span.kind == Kind::kChange) change_ns += duration;
  }
  // The change's duration splits into the live layer spans it (or its
  // nested digest sync) covers and the opaque self time; the opaque part
  // holds the replayed layers plus the glue.
  glue_ns_[phase] += opaque - replayed;
  live_child_ns_[phase] += change_ns - opaque;
  ++changes_[phase];
  if (changes_[phase] <= kArchivedChanges) {
    archive_.insert(archive_.end(), spans_.begin(), spans_.end());
  }
  ++change_id_;
  spans_.clear();
  open_.clear();
  parent_.store(-1, std::memory_order_release);
}

Phase Tracer::BestPhase(std::initializer_list<Kind> kinds) const {
  for (Phase phase : {Phase::kTimed, Phase::kProbe, Phase::kSetup}) {
    for (Kind kind : kinds) {
      if (totals(phase, kind).count > 0) return phase;
    }
  }
  return Phase::kTimed;
}

double Tracer::GlueUs(Phase phase) const {
  size_t p = static_cast<size_t>(phase);
  return changes_[p] == 0 ? 0 : glue_ns_[p] / 1e3 / changes_[p];
}

double Tracer::LiveChildUs(Phase phase) const {
  size_t p = static_cast<size_t>(phase);
  return changes_[p] == 0 ? 0 : live_child_ns_[p] / 1e3 / changes_[p];
}

bool Tracer::WriteFile(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : archive_) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"change\":%u,\"thread\":%u}\n",
                 KindName(span.kind), static_cast<long long>(span.start),
                 static_cast<long long>(span.end), span.parent, span.change,
                 span.thread);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
