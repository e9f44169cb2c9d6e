#include "support/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <numeric>

namespace oocq {
namespace trace_internal {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Flushing every span would serialize threads on the core mutex; batching
// amortizes it to one lock per kFlushBatch spans.
constexpr size_t kFlushBatch = 1024;

}  // namespace

/// The per-session shared sink. Buffers flush into `events` under `mu`;
/// `finalized` makes late flushes (threads outliving the session) drop
/// their events instead of corrupting the next session's log.
struct TraceLogCore {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::atomic<uint32_t> next_thread_index{0};
  bool finalized = false;
  uint64_t t0_ns = 0;
};

namespace {

// Session install state. `g_enabled` is the relaxed fast gate; the
// (epoch, core) pair only changes together under `g_mu`.
std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_epoch{1};
std::mutex g_mu;
std::shared_ptr<TraceLogCore> g_core;  // guarded by g_mu

}  // namespace

/// Thread-local staging area. Bound lazily to the active session's core
/// on first span (epoch-checked); rebinds when a new session starts.
struct ThreadTraceBuffer {
  std::shared_ptr<TraceLogCore> core;
  uint64_t epoch = 0;
  uint32_t thread_index = 0;
  uint64_t next_seq = 0;
  uint32_t depth = 0;
  std::vector<TraceEvent> batch;

  ~ThreadTraceBuffer() { Flush(); }

  void Flush() {
    if (core != nullptr && !batch.empty()) {
      std::lock_guard<std::mutex> lock(core->mu);
      if (!core->finalized) {
        for (TraceEvent& event : batch) core->events.push_back(std::move(event));
      }
    }
    batch.clear();
  }

  /// Points this thread at the currently installed session (or detaches
  /// it when none is installed). Pending events from the previous session
  /// are flushed first so they land in the right log.
  void Rebind() {
    Flush();
    std::lock_guard<std::mutex> lock(g_mu);
    core = g_core;
    epoch = g_epoch.load(std::memory_order_relaxed);
    next_seq = 0;
    depth = 0;
    if (core != nullptr) {
      thread_index = core->next_thread_index.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

namespace {

ThreadTraceBuffer& LocalBuffer() {
  static thread_local ThreadTraceBuffer buffer;
  return buffer;
}

/// The outermost ThreadSpanCapture alive on this thread (null when none).
thread_local ThreadSpanCapture* g_capture = nullptr;

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendArgsJson(std::string* out, const TraceEvent& event) {
  *out += '{';
  bool first = true;
  for (const auto& [key, value] : event.args) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    AppendJsonEscaped(out, key);
    *out += "\":\"";
    AppendJsonEscaped(out, value);
    *out += '"';
  }
  *out += '}';
}

Status WriteStringToFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open trace output file: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) return Status::Internal("failed writing trace output file: " + path);
  return Status::Ok();
}

/// Ids are ranks in signature-sorted order: deterministic whenever the
/// span structure is, and structurally-identical spans get interchangeable
/// consecutive ids.
void AssignDeterministicIds(std::vector<TraceEvent>* events) {
  std::vector<std::string> signatures;
  signatures.reserve(events->size());
  for (const TraceEvent& event : *events) signatures.push_back(event.Signature());
  std::vector<size_t> order(events->size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return signatures[a] < signatures[b];
  });
  for (size_t rank = 0; rank < order.size(); ++rank) {
    (*events)[order[rank]].id = rank + 1;
  }
}

}  // namespace
}  // namespace trace_internal

using trace_internal::LocalBuffer;
using trace_internal::NowNs;
using trace_internal::TraceLogCore;

std::string TraceEvent::Signature() const {
  std::string out = name;
  out += '(';
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += '=';
    out += value;
  }
  out += ')';
  return out;
}

bool TracingActive() {
  return trace_internal::g_enabled.load(std::memory_order_relaxed);
}

TraceSession::TraceSession(TraceLog* log) {
  if (log == nullptr) return;
  std::lock_guard<std::mutex> lock(trace_internal::g_mu);
  if (trace_internal::g_core != nullptr) return;  // first session wins
  core_ = std::make_shared<TraceLogCore>();
  core_->t0_ns = NowNs();
  trace_internal::g_core = core_;
  trace_internal::g_epoch.fetch_add(1, std::memory_order_relaxed);
  trace_internal::g_enabled.store(true, std::memory_order_release);
  log_ = log;
}

TraceSession::~TraceSession() {
  if (log_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(trace_internal::g_mu);
    trace_internal::g_enabled.store(false, std::memory_order_release);
    trace_internal::g_core.reset();
    trace_internal::g_epoch.fetch_add(1, std::memory_order_relaxed);
  }
  // The session thread's own pending spans (other threads flush theirs
  // per batch and on exit; see trace.h).
  LocalBuffer().Flush();
  {
    std::lock_guard<std::mutex> lock(core_->mu);
    core_->finalized = true;
    std::stable_sort(core_->events.begin(), core_->events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       if (a.thread_index != b.thread_index) {
                         return a.thread_index < b.thread_index;
                       }
                       return a.seq < b.seq;
                     });
    for (TraceEvent& event : core_->events) {
      log_->events_.push_back(std::move(event));
    }
    core_->events.clear();
  }
  trace_internal::AssignDeterministicIds(&log_->events_);
}

ThreadSpanCapture::ThreadSpanCapture() {
  if (trace_internal::g_capture != nullptr) return;  // outermost wins
  trace_internal::g_capture = this;
  owned_ = true;
  start_ns_ = NowNs();
}

ThreadSpanCapture::~ThreadSpanCapture() {
  if (owned_) trace_internal::g_capture = nullptr;
}

std::string ThreadSpanCapture::Render() const {
  // spans_ is in finish order (children before parents); start order +
  // depth reproduces the tree top-down.
  std::vector<size_t> order(spans_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return spans_[a].start_ns < spans_[b].start_ns;
  });
  std::string out;
  char buf[48];
  for (size_t index : order) {
    const CapturedSpan& span = spans_[index];
    out.append(2 * span.depth, ' ');
    out += span.name;
    if (!span.args.empty()) {
      out += " (";
      bool first = true;
      for (const auto& [key, value] : span.args) {
        if (!first) out += ' ';
        first = false;
        out += key;
        out += '=';
        out += value;
      }
      out += ')';
    }
    std::snprintf(buf, sizeof(buf), " %.3fms",
                  static_cast<double>(span.dur_ns) / 1e6);
    out += buf;
    out += '\n';
  }
  return out;
}

TraceSpan::TraceSpan(const char* name) {
  if (trace_internal::g_enabled.load(std::memory_order_relaxed)) {
    trace_internal::ThreadTraceBuffer& buffer = LocalBuffer();
    if (buffer.epoch !=
        trace_internal::g_epoch.load(std::memory_order_acquire)) {
      buffer.Rebind();
    }
    if (buffer.core != nullptr) {
      buffer_ = &buffer;
      epoch_ = buffer.epoch;
      seq_ = buffer.next_seq++;
      depth_ = buffer.depth++;
    }
  }
  if (ThreadSpanCapture* capture = trace_internal::g_capture) {
    capture_ = capture;
    capture_depth_ = capture->depth_++;
  }
  if (buffer_ == nullptr && capture_ == nullptr) return;
  name_ = name;
  start_raw_ns_ = NowNs();
}

TraceSpan::~TraceSpan() {
  if (buffer_ == nullptr && capture_ == nullptr) return;
  const uint64_t end_raw_ns = NowNs();
  if (capture_ != nullptr) {
    CapturedSpan span;
    span.name = name_;
    span.args = args_;  // copied: the session event below may need them too
    span.start_ns = start_raw_ns_ - capture_->start_ns_;
    span.dur_ns = end_raw_ns - start_raw_ns_;
    span.depth = capture_depth_;
    capture_->spans_.push_back(std::move(span));
    if (capture_->depth_ > 0) --capture_->depth_;
  }
  if (buffer_ == nullptr) return;
  // The session ended (and a new one may have started) while this span
  // was open: its core is gone, so the event has nowhere coherent to go.
  if (buffer_->epoch != epoch_) return;
  TraceEvent event;
  event.name = name_;
  event.args = std::move(args_);
  event.start_ns = start_raw_ns_ - buffer_->core->t0_ns;
  event.dur_ns = end_raw_ns - start_raw_ns_;
  event.thread_index = buffer_->thread_index;
  event.depth = depth_;
  event.seq = seq_;
  buffer_->batch.push_back(std::move(event));
  if (buffer_->depth > 0) --buffer_->depth;
  if (buffer_->batch.size() >= trace_internal::kFlushBatch) buffer_->Flush();
}

TraceSpan& TraceSpan::Arg(const char* key, const char* value) {
  if (recording()) args_.emplace_back(key, value);
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, const std::string& value) {
  if (recording()) args_.emplace_back(key, value);
  return *this;
}

TraceSpan& TraceSpan::Arg(const char* key, uint64_t value) {
  if (recording()) args_.emplace_back(key, std::to_string(value));
  return *this;
}

std::string TraceLog::ChromeTraceJson() const {
  std::string out = "{\"traceEvents\":[";
  char buf[96];
  bool first = true;
  for (const TraceEvent& event : events_) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"ph\":\"X\",\"pid\":1,";
    std::snprintf(buf, sizeof(buf), "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,",
                  event.thread_index, static_cast<double>(event.start_ns) / 1000.0,
                  static_cast<double>(event.dur_ns) / 1000.0);
    out += buf;
    out += "\"name\":\"";
    trace_internal::AppendJsonEscaped(&out, event.name);
    out += "\",\"args\":";
    // span_id rides inside args so the deterministic id survives the
    // Chrome viewer's own event model.
    out += "{\"span_id\":\"";
    out += std::to_string(event.id);
    out += '"';
    for (const auto& [key, value] : event.args) {
      out += ",\"";
      trace_internal::AppendJsonEscaped(&out, key);
      out += "\":\"";
      trace_internal::AppendJsonEscaped(&out, value);
      out += '"';
    }
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return out;
}

Status TraceLog::WriteChromeTrace(const std::string& path) const {
  return trace_internal::WriteStringToFile(path, ChromeTraceJson());
}

std::string TraceLog::JsonlString() const {
  std::string out;
  char buf[128];
  for (const TraceEvent& event : events_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%" PRIu64 ",\"tid\":%u,\"seq\":%" PRIu64
                  ",\"depth\":%u,\"start_ns\":%" PRIu64 ",\"dur_ns\":%" PRIu64
                  ",\"name\":\"",
                  event.id, event.thread_index, event.seq, event.depth,
                  event.start_ns, event.dur_ns);
    out += buf;
    trace_internal::AppendJsonEscaped(&out, event.name);
    out += "\",\"args\":";
    trace_internal::AppendArgsJson(&out, event);
    out += "}\n";
  }
  return out;
}

Status TraceLog::WriteJsonl(const std::string& path) const {
  return trace_internal::WriteStringToFile(path, JsonlString());
}

}  // namespace oocq
