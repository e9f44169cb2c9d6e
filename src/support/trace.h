#ifndef OOCQ_SUPPORT_TRACE_H_
#define OOCQ_SUPPORT_TRACE_H_

/// Lock-cheap, thread-aware span tracing for the §3/§4 pipeline.
///
/// Usage:
///
///   TraceLog log;
///   {
///     TraceSession session(&log);          // installs the run-wide sink
///     OOCQ_TRACE_SPAN(span, "Contained");  // RAII span on this thread
///     span.Arg("spec", "Cor3.4").Arg("pool", pool_size);
///     ...
///   }                                      // session end finalizes the log
///   log.WriteChromeTrace("out.json");      // load in chrome://tracing
///
/// Design:
///  * One process-wide session at a time (first wins; nested sessions are
///    inert). A relaxed atomic gates every span start, so the disabled
///    path is a single load + branch; `-DOOCQ_DISABLE_TRACING` compiles
///    spans out entirely.
///  * Each recording thread owns a thread-local buffer bound to the
///    session's shared core (epoch-checked, so stale bindings from a
///    previous session rebind lazily). Spans append to the local buffer;
///    batches flush into the core under one mutex, thread exit and
///    session end flush the remainder. A thread that neither exits nor
///    records again after session end keeps its (empty-by-then) binding
///    until the next session; late flushes after finalize are dropped.
///  * Span *structure* — the multiset of `name(k=v,…)` signatures —
///    leaves out timing, thread indices and nesting depth, which vary
///    from run to run. Span ids are assigned at finalize in
///    signature-sorted order, so they are deterministic wherever the
///    structure is.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/status.h"

namespace oocq {

namespace trace_internal {
struct TraceLogCore;
struct ThreadTraceBuffer;
}  // namespace trace_internal

/// One finished span. `start_ns` is relative to session start;
/// `thread_index` is the order the thread first recorded in this session
/// (scheduling-dependent); `seq` is the span's start order within its
/// thread; `depth` is the nesting level within its thread at start.
struct TraceEvent {
  uint64_t id = 0;  // deterministic: rank in signature-sorted order
  std::string name;
  std::vector<std::pair<std::string, std::string>> args;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t thread_index = 0;
  uint32_t depth = 0;
  uint64_t seq = 0;

  /// The structural identity of the span: `name(k1=v1,k2=v2)`. Excludes
  /// timing, thread and nesting information by construction.
  std::string Signature() const;
};

/// A passive container of finished spans, filled when the TraceSession
/// bound to it ends. Reusable across sessions: later sessions append and
/// ids are reassigned over the whole log.
class TraceLog {
 public:
  TraceLog() = default;
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;
  // Movable so logs can be returned from helpers — but never move a log
  // while the TraceSession writing into it is still alive.
  TraceLog(TraceLog&&) = default;
  TraceLog& operator=(TraceLog&&) = default;

  /// Finished spans, ordered by (thread_index, seq). Valid only after the
  /// session writing into this log has been destroyed.
  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// Chrome tracing / Perfetto JSON ("X" complete events, µs timestamps).
  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// One JSON object per span per line, in (thread_index, seq) order.
  std::string JsonlString() const;
  Status WriteJsonl(const std::string& path) const;

 private:
  friend class TraceSession;
  std::vector<TraceEvent> events_;
};

/// RAII installer of the process-wide tracing sink. Passing nullptr, or
/// constructing while another session is active, yields an inert session
/// (active() == false) — the engine threads options.observability.trace
/// straight through, so a null log simply disables tracing for that run.
class TraceSession {
 public:
  explicit TraceSession(TraceLog* log);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool active() const { return log_ != nullptr; }

 private:
  TraceLog* log_ = nullptr;
  std::shared_ptr<trace_internal::TraceLogCore> core_;
};

/// True when a session is installed — the fast gate every span checks.
bool TracingActive();

/// One span collected by a ThreadSpanCapture, in span-finish order.
struct CapturedSpan {
  std::string name;
  std::vector<std::pair<std::string, std::string>> args;
  uint64_t start_ns = 0;  // relative to capture start
  uint64_t dur_ns = 0;
  uint32_t depth = 0;  // nesting level inside the capture scope
};

/// RAII collector of every span finished on *this thread* while it is
/// alive, independent of any TraceSession — the slow-request path
/// (docs/observability.md#logging) uses one per suspect request so the
/// offending span tree can be logged without tracing the whole server.
/// Nested captures are inert (outermost wins), spans started on other
/// threads are not seen, and under
/// -DOOCQ_DISABLE_TRACING the capture stays empty. The extra cost on the
/// span fast path when no capture is installed is one thread-local load.
class ThreadSpanCapture {
 public:
  ThreadSpanCapture();
  ~ThreadSpanCapture();

  ThreadSpanCapture(const ThreadSpanCapture&) = delete;
  ThreadSpanCapture& operator=(const ThreadSpanCapture&) = delete;

  bool active() const { return owned_; }
  const std::vector<CapturedSpan>& spans() const { return spans_; }

  /// Indented tree of the captured spans in start order:
  ///   Request (kind=contained) 12.345ms
  ///     WalAppend (records=1) 0.831ms
  std::string Render() const;

 private:
  friend class TraceSpan;
  bool owned_ = false;
  uint32_t depth_ = 0;
  uint64_t start_ns_ = 0;
  std::vector<CapturedSpan> spans_;
};

/// RAII span. Constructing while no session is active is a no-op (one
/// relaxed atomic load). Arg() calls after construction attach key/value
/// annotations; values become part of the span's structural signature,
/// so only annotate with scheduling-independent data on deterministic
/// paths (counts, sizes, dispatch decisions — never times).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  TraceSpan& Arg(const char* key, const char* value);
  TraceSpan& Arg(const char* key, const std::string& value);
  TraceSpan& Arg(const char* key, uint64_t value);

  bool recording() const { return buffer_ != nullptr || capture_ != nullptr; }

 private:
  trace_internal::ThreadTraceBuffer* buffer_ = nullptr;  // null when inert
  ThreadSpanCapture* capture_ = nullptr;  // this thread's capture, if any
  const char* name_ = nullptr;
  uint64_t epoch_ = 0;  // drops the span if the session changed under it
  uint64_t start_raw_ns_ = 0;
  uint64_t seq_ = 0;
  uint32_t depth_ = 0;
  uint32_t capture_depth_ = 0;
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Compile-time stand-in when tracing is disabled: same surface, no code.
class NoopTraceSpan {
 public:
  explicit NoopTraceSpan(const char*) {}
  template <typename T>
  NoopTraceSpan& Arg(const char*, const T&) {
    return *this;
  }
  NoopTraceSpan& Arg(const char*, const char*) { return *this; }
  bool recording() const { return false; }
};

#if defined(OOCQ_DISABLE_TRACING)
#define OOCQ_TRACE_SPAN(span_var, span_name) ::oocq::NoopTraceSpan span_var(span_name)
#else
#define OOCQ_TRACE_SPAN(span_var, span_name) ::oocq::TraceSpan span_var(span_name)
#endif

}  // namespace oocq

#endif  // OOCQ_SUPPORT_TRACE_H_
