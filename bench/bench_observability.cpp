// Observability overhead benchmark: a redundancy-heavy positive union
// (chains of length 1..k, so the containment matrix is dense) pushed
// through MinimizePositiveUnion in three modes — sinks disabled, metrics
// collecting, and full tracing — plus a micro-measurement of the
// disabled-path cost of one span+counter site (a relaxed atomic load and
// branch each).
//
// Standalone binary (no google-benchmark): it cross-checks that all
// modes produce the byte-identical union, writes BENCH_observability.json
// and FAILS (exit 1) if the projected disabled-mode overhead — disabled
// per-site cost × sites per run, relative to the disabled run time —
// reaches 2%. The projection is used instead of differencing two macro
// timings because on a noisy single-core container the difference of two
// ~equal wall times measures the scheduler, not the instrumentation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine_options.h"
#include "core/minimization.h"
#include "query/printer.h"
#include "server/service.h"
#include "support/log.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace oocq::bench {
namespace {

constexpr int kReps = 5;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

UnionQuery MakeRedundantUnion(const Schema& schema, int max_len,
                              int copies_per_len) {
  UnionQuery u;
  for (int len = 1; len <= max_len; ++len) {
    for (int copy = 0; copy < copies_per_len; ++copy) {
      u.disjuncts.push_back(MakeChainQuery(schema, len));
    }
  }
  return u;
}

double RunOnceMillis(const Schema& schema, const UnionQuery& input,
                     std::string* rendered) {
  const double start = NowMs();
  MinimizationReport report = Must(MinimizePositiveUnion(schema, input, {}));
  const double stop = NowMs();
  *rendered = UnionQueryToString(schema, report.minimized);
  return stop - start;
}

double BestOfReps(const Schema& schema, const UnionQuery& input,
                  std::string* rendered) {
  double best = -1;
  for (int rep = 0; rep < kReps; ++rep) {
    const double ms = RunOnceMillis(schema, input, rendered);
    if (best < 0 || ms < best) best = ms;
  }
  return best;
}

/// Nanoseconds per *disabled* instrumentation site: one OOCQ_TRACE_SPAN
/// plus one MetricAdd with no session/scope installed. The span's
/// recording() result feeds a volatile sink so the loop cannot be
/// folded away.
double DisabledSiteNanos() {
  constexpr uint64_t kIters = 1 << 22;
  volatile uint64_t sink = 0;
  const double start = NowMs();
  for (uint64_t i = 0; i < kIters; ++i) {
    OOCQ_TRACE_SPAN(span, "disabled_site");
    MetricAdd("disabled/counter", 1);
    sink = sink + (span.recording() ? 1 : 0);
  }
  const double stop = NowMs();
  return (stop - start) * 1e6 / static_cast<double>(kIters);
}

// ---- Server-suite telemetry overhead ------------------------------------
//
// The macro gate the telemetry plane ships under: the bench_server
// request mix through OocqService with the whole plane off (no metrics
// registry, logging off) versus fully on (metrics + per-verb histograms,
// logging configured at info, a scraper thread rendering the Prometheus
// STATS text every 250ms — 40x more often than oocq_serve's default
// --stats_interval_s=10). The scrape itself is per-cadence, not
// per-request, so it gets its own gate (render time amortized over the
// 250ms cadence must stay under 1%) instead of being billed to whatever
// requests share its ~10ms timed window. The estimator is the
// median of per-rep paired ratios: each rep times off then on back to
// back (adjacent in time, so a machine-load burst lands on both sides
// or inflates just that pair's ratio), and the median across reps
// discards the contaminated pairs. Best-of totals proved too fragile on
// a shared container — one noisy window under every on-rep skews a min
// statistic, but not a median of pairs.

struct ServerSuiteSample {
  double total_ms = 0;   // median-rep wall time for the whole mix
  uint64_t p50_us = 0;   // median rep's per-request latency median
};

server::Request MakeServerRequest(const std::string& sid, int i) {
  static const char* kQueries[] = {
      "{ x | exists y (x in Vehicle & y in Discount & x in y.VehRented) }",
      "{ x | x in Auto }",
      "{ x | exists y (x in Auto & y in Client & x in y.VehRented) }",
      "{ x | x in Trailer }",
  };
  server::Request request;
  request.kind = server::RequestKind::kContained;
  request.session_id = sid;
  request.query = kQueries[i % 4];
  request.query2 = kQueries[(i + 1) % 4];
  return request;
}

int RunServerRep(bool telemetry, int requests, double* elapsed_ms,
                 std::vector<uint64_t>* latencies) {
  server::ServiceOptions options;
  options.max_in_flight = 4;
  options.metrics = telemetry;
  // Slow-request capture (slow_request_us) and tracing stay off in both
  // modes: like a TraceSession, the capture is an opt-in diagnostic, not
  // part of the default-on telemetry plane this gate prices.
  LogConfig log_config;
  log_config.level = telemetry ? LogLevel::kInfo : LogLevel::kOff;
  ConfigureLogging(log_config);

  server::OocqService service(options);
  StatusOr<std::string> sid = service.CreateSession(R"(
schema Bench {
  class Vehicle { }
  class Auto under Vehicle { }
  class Trailer under Vehicle { }
  class Client { VehRented: {Vehicle}; }
  class Discount under Client { VehRented: {Auto}; }
}
)");
  if (!sid.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", sid.status().ToString().c_str());
    return 1;
  }

  std::atomic<bool> stop_scraper{false};
  std::thread scraper;
  if (telemetry) {
    // Sleeps before the first scrape: a rep's timed window is ~10ms, so
    // an immediate scrape would land inside every window and bill the
    // whole render to ~500 requests — a cadence no deployment runs
    // (oocq_serve's default is one render per 10 s). The render cost is
    // measured and gated separately (stats_render_us / scrape gate).
    scraper = std::thread([&] {
      while (!stop_scraper.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        if (stop_scraper.load(std::memory_order_acquire)) break;
        volatile size_t sink = service.StatsText().size();
        (void)sink;
      }
    });
  }

  latencies->clear();
  latencies->reserve(requests);
  const double start = NowMs();
  for (int i = 0; i < requests; ++i) {
    server::Response response = service.Execute(MakeServerRequest(*sid, i));
    if (!response.status.ok()) {
      stop_scraper.store(true, std::memory_order_release);
      if (scraper.joinable()) scraper.join();
      std::fprintf(stderr, "FAIL: %s\n", response.status.ToString().c_str());
      return 1;
    }
    latencies->push_back(response.latency_us);
  }
  *elapsed_ms = NowMs() - start;
  stop_scraper.store(true, std::memory_order_release);
  if (scraper.joinable()) scraper.join();
  return 0;
}

int RunServerSuite(ServerSuiteSample* off, ServerSuiteSample* on,
                   double* overhead_pct) {
  constexpr int kRequests = 500;
  constexpr int kSuiteReps = 11;
  constexpr int kLegsPerMode = 4;

  // Three layers of noise defense, each against a different noise scale:
  //  * within a leg, a 20%-trimmed mean of its 500 per-request latencies
  //    discards burst-inflated samples and washes out the 1us latency
  //    quantization that makes a p50-vs-p50 comparison useless at 20us;
  //  * within a rep, the two modes' legs interleave tightly
  //    (off,on,off,on,...), the leg order alternating per rep, and each
  //    mode keeps its *minimum* leg mean — a load window lasting a few
  //    legs inflates whichever legs it overlaps, and the min discards
  //    them; one spanning the whole rep inflates both modes' minima and
  //    cancels in the ratio;
  //  * the gated overhead is the lower-quartile per-rep ratio. On a
  //    shared single-core box (this container: 1 vCPU with steal time),
  //    contamination is one-sided — load can only inflate a leg — so
  //    low quantiles estimate the uncontaminated ratio, the same
  //    principle as min-time benchmarking. A real per-request
  //    regression shifts every rep's ratio and moves the quartile with
  //    it; a median proved flaky here (sustained background IO after a
  //    build can contaminate half the reps).
  struct Rep {
    double off_ms, on_ms;
    double off_mean_us, on_mean_us;
    uint64_t off_p50, on_p50;
    double ratio;
  };
  auto trimmed_mean = [](std::vector<uint64_t>* samples) {
    std::sort(samples->begin(), samples->end());
    const size_t trim = samples->size() / 5;  // 20% off each side
    double sum = 0;
    for (size_t i = trim; i < samples->size() - trim; ++i) {
      sum += static_cast<double>((*samples)[i]);
    }
    return sum / static_cast<double>(samples->size() - 2 * trim);
  };
  std::vector<Rep> reps;
  std::vector<uint64_t> rep_latencies;
  for (int rep = 0; rep < kSuiteReps; ++rep) {
    Rep sample{};
    sample.off_mean_us = sample.on_mean_us = -1;
    const bool on_first = (rep % 2) == 1;
    for (int leg = 0; leg < 2 * kLegsPerMode; ++leg) {
      const bool telemetry = (leg % 2 == 0) == on_first;
      double elapsed = 0;
      if (int rc = RunServerRep(telemetry, kRequests, &elapsed,
                                &rep_latencies);
          rc != 0) {
        return rc;
      }
      const double mean_us = trimmed_mean(&rep_latencies);
      double* best = telemetry ? &sample.on_mean_us : &sample.off_mean_us;
      if (*best >= 0 && mean_us >= *best) continue;
      *best = mean_us;
      // rep_latencies is sorted by the trimmed-mean pass.
      uint64_t p50 = rep_latencies[rep_latencies.size() / 2];
      (telemetry ? sample.on_p50 : sample.off_p50) = p50;
      (telemetry ? sample.on_ms : sample.off_ms) = elapsed;
    }
    sample.ratio = sample.on_mean_us / sample.off_mean_us;
    reps.push_back(sample);
  }

  std::sort(reps.begin(), reps.end(),
            [](const Rep& a, const Rep& b) { return a.ratio < b.ratio; });
  const Rep& quartile = reps[reps.size() / 4];
  off->total_ms = quartile.off_ms;
  off->p50_us = quartile.off_p50;
  on->total_ms = quartile.on_ms;
  on->p50_us = quartile.on_p50;
  *overhead_pct = (quartile.ratio - 1.0) * 100.0;
  return 0;
}

int Run() {
  const Schema schema = MakeChainSchema();
  const UnionQuery input =
      MakeRedundantUnion(schema, /*max_len=*/8, /*copies_per_len=*/2);

  // Mode 1: sinks disabled (every site is a closed gate).
  std::string rendered_disabled;
  const double disabled_ms = BestOfReps(schema, input, &rendered_disabled);

  // Mode 2: metrics collecting. Histogram counts are true event counts
  // (one Record per sample); counter values are not (Add takes deltas),
  // so counter traffic is bounded structurally below instead.
  std::string rendered_metrics;
  double metrics_ms;
  uint64_t histogram_events = 0;
  {
    MetricsRegistry registry;
    MetricsScope scope(&registry);
    metrics_ms = BestOfReps(schema, input, &rendered_metrics);
    for (const auto& histogram : registry.Snap().histograms) {
      histogram_events += histogram.count;
    }
  }

  // Mode 3: full tracing (implies metrics) + timed Chrome export.
  std::string rendered_traced;
  double traced_ms;
  double export_ms;
  size_t spans_per_run;
  {
    TraceLog log;
    MetricsRegistry registry;
    MetricsScope scope(&registry);
    {
      TraceSession session(&log);
      traced_ms = BestOfReps(schema, input, &rendered_traced);
    }
    const double export_start = NowMs();
    const std::string json = log.ChromeTraceJson();
    export_ms = NowMs() - export_start;
    // All kReps repetitions recorded into one log.
    spans_per_run = log.events().size() / kReps;
    if (json.empty()) return 1;
  }

  if (rendered_metrics != rendered_disabled ||
      rendered_traced != rendered_disabled) {
    std::fprintf(stderr, "FAIL: observability changed the minimized union\n");
    return 1;
  }

  // Server suite: telemetry plane fully off vs fully on, interleaved.
  ServerSuiteSample server_off, server_on;
  double server_overhead_pct = 0;
  if (int rc = RunServerSuite(&server_off, &server_on, &server_overhead_pct);
      rc != 0) {
    return rc;
  }

  // The STATS render is priced on its own axis: it is per-scrape, not
  // per-request, so its cost scales with the scrape cadence rather than
  // the request rate. Best-of-5 renders of a populated registry,
  // amortized over the bench's aggressive 250ms cadence (40x
  // oocq_serve's default 10s).
  double stats_render_us = 0;
  {
    server::ServiceOptions options;
    options.metrics = true;
    server::OocqService service(options);
    StatusOr<std::string> sid = service.CreateSession(
        "schema S { class A { } class A1 under A { } }");
    if (!sid.ok()) return 1;
    server::Request request;
    request.kind = server::RequestKind::kContained;
    request.session_id = *sid;
    request.query = "{ x | x in A1 }";
    request.query2 = "{ x | x in A }";
    for (int i = 0; i < 64; ++i) {
      if (!service.Execute(request).status.ok()) return 1;
    }
    double best = -1;
    for (int i = 0; i < 5; ++i) {
      const double start = NowMs();
      volatile size_t sink = service.StatsText().size();
      (void)sink;
      const double us = (NowMs() - start) * 1000.0;
      if (best < 0 || us < best) best = us;
    }
    stats_render_us = best;
  }
  const double scrape_overhead_pct = 100.0 * stats_render_us / 250e3;

  const double site_ns = DisabledSiteNanos();
  // Instrumentation sites executed per run: every span plus the counter
  // updates adjacent to it. No span site in the engine issues more than
  // 8 MetricAdd calls, so spans×(1+8) plus the exact histogram event
  // count is a deliberate overcount.
  const double sites_per_run =
      static_cast<double>(spans_per_run) * 9.0 +
      static_cast<double>(histogram_events) / kReps;
  const double disabled_overhead_pct =
      100.0 * (site_ns * sites_per_run) / (disabled_ms * 1e6);
  const double metrics_overhead_pct =
      100.0 * (metrics_ms - disabled_ms) / disabled_ms;
  const double traced_overhead_pct =
      100.0 * (traced_ms - disabled_ms) / disabled_ms;

  std::FILE* out = std::fopen("BENCH_observability.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_observability.json");
    return 1;
  }
  BeginBenchJson(out);
  std::fprintf(out,
               "  \"workload\": \"MinimizePositiveUnion over %zu redundant "
               "chain disjuncts\",\n"
               "  \"disabled_ms\": %.3f,\n"
               "  \"metrics_ms\": %.3f,\n"
               "  \"traced_ms\": %.3f,\n"
               "  \"chrome_export_ms\": %.3f,\n"
               "  \"spans_per_run\": %zu,\n"
               "  \"projected_sites_per_run\": %.0f,\n"
               "  \"disabled_site_ns\": %.2f,\n"
               "  \"disabled_overhead_pct\": %.4f,\n"
               "  \"metrics_overhead_pct\": %.2f,\n"
               "  \"traced_overhead_pct\": %.2f,\n"
               "  \"server_suite_off_ms\": %.3f,\n"
               "  \"server_suite_on_ms\": %.3f,\n"
               "  \"server_suite_off_p50_us\": %llu,\n"
               "  \"server_suite_on_p50_us\": %llu,\n"
               "  \"server_telemetry_overhead_pct\": %.2f,\n"
               "  \"stats_render_us\": %.1f,\n"
               "  \"scrape_overhead_pct_at_250ms\": %.4f\n"
               "}\n",
               input.disjuncts.size(), disabled_ms, metrics_ms, traced_ms,
               export_ms, spans_per_run, sites_per_run, site_ns,
               disabled_overhead_pct, metrics_overhead_pct,
               traced_overhead_pct, server_off.total_ms, server_on.total_ms,
               static_cast<unsigned long long>(server_off.p50_us),
               static_cast<unsigned long long>(server_on.p50_us),
               server_overhead_pct, stats_render_us, scrape_overhead_pct);
  std::fclose(out);

  std::printf("disabled   %8.3f ms\n", disabled_ms);
  std::printf("metrics    %8.3f ms  (%+.2f%%)\n", metrics_ms,
              metrics_overhead_pct);
  std::printf("traced     %8.3f ms  (%+.2f%%), %zu spans, export %.3f ms\n",
              traced_ms, traced_overhead_pct, spans_per_run, export_ms);
  std::printf("disabled site: %.2f ns -> projected overhead %.4f%%\n",
              site_ns, disabled_overhead_pct);

  std::printf("server suite  off %8.3f ms (p50=%llu us)  "
              "on %8.3f ms (p50=%llu us)  (%+.2f%%)\n",
              server_off.total_ms,
              static_cast<unsigned long long>(server_off.p50_us),
              server_on.total_ms,
              static_cast<unsigned long long>(server_on.p50_us),
              server_overhead_pct);
  std::printf("stats render  %8.1f us -> %.4f%% at a 250ms scrape cadence\n",
              stats_render_us, scrape_overhead_pct);

  if (disabled_overhead_pct >= 2.0) {
    std::fprintf(stderr,
                 "FAIL: disabled-mode overhead %.4f%% >= 2%% budget\n",
                 disabled_overhead_pct);
    return 1;
  }
  if (server_overhead_pct >= 3.0) {
    std::fprintf(stderr,
                 "FAIL: fully-enabled telemetry costs %.2f%% >= 3%% of the "
                 "server suite\n",
                 server_overhead_pct);
    return 1;
  }
  if (scrape_overhead_pct >= 1.0) {
    std::fprintf(stderr,
                 "FAIL: STATS render %.1f us is %.2f%% >= 1%% of a 250ms "
                 "scrape cadence\n",
                 stats_render_us, scrape_overhead_pct);
    return 1;
  }
  std::printf("disabled-mode overhead within 2%% budget, enabled telemetry "
              "within 3%%, scrape render within 1%% of its cadence; wrote "
              "BENCH_observability.json\n");
  return 0;
}

}  // namespace
}  // namespace oocq::bench

int main() { return oocq::bench::Run(); }
