// E14 — restart cost and warm-start payoff of the durable catalog
// (docs/persistence.md): the E13 containment mix runs once against a
// fresh service backed by a DurableCatalog (cold), the service is torn
// down (final snapshot), and the same mix runs against a restarted
// service over the same data dir (warm). The warm run must produce
// identical verdicts and answer mostly from the restored cache.
//
// Standalone binary (no google-benchmark): writes BENCH_persist.json
// with cold/warm p50/p99 latency and cache hit rate, plus the recovery
// record count, and asserts the restart properties the server relies
// on — same verdicts, a non-zero warm hit rate, and a populated
// snapshot on disk.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "persist/catalog.h"
#include "persist/snapshot.h"
#include "server/service.h"
#include "support/file.h"
#include "support/status.h"

namespace oocq::bench {
namespace {

using server::OocqService;
using server::Request;
using server::RequestKind;
using server::Response;
using server::ServiceOptions;

constexpr const char* kSchema = R"(
schema Bench {
  class Vehicle { }
  class Auto under Vehicle { }
  class Trailer under Vehicle { }
  class Client { VehRented: {Vehicle}; }
  class Discount under Client { VehRented: {Auto}; }
}
)";

// The E13 rotating decision mix (bench_server.cpp): four queries paired
// cyclically, so a session cache converges onto a small working set.
Request MakeRequest(const std::string& sid, int i) {
  static const char* kQueries[] = {
      "{ x | exists y (x in Vehicle & y in Discount & x in y.VehRented) }",
      "{ x | x in Auto }",
      "{ x | exists y (x in Auto & y in Client & x in y.VehRented) }",
      "{ x | x in Trailer }",
  };
  Request request;
  request.kind = RequestKind::kContained;
  request.session_id = sid;
  request.query = kQueries[i % 4];
  request.query2 = kQueries[(i + 1) % 4];
  return request;
}

uint64_t Percentile(std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

struct PhaseSample {
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  double hit_rate = 0;
  size_t requests = 0;
  std::vector<bool> verdicts;
};

/// Runs the mix single-client (closed loop) and reads the hit rate off
/// the service registry — the same counters the STATS verb exposes.
int RunPhase(OocqService* service, const std::string& sid, uint32_t requests,
             PhaseSample* sample) {
  std::vector<uint64_t> latencies;
  latencies.reserve(requests);
  for (uint32_t i = 0; i < requests; ++i) {
    Response response = service->Execute(MakeRequest(sid, static_cast<int>(i)));
    if (!response.status.ok()) {
      std::fprintf(stderr, "FAIL: request %u: %s\n", i,
                   response.status.ToString().c_str());
      return 1;
    }
    latencies.push_back(response.latency_us);
    sample->verdicts.push_back(response.verdict);
  }
  std::sort(latencies.begin(), latencies.end());
  sample->p50_us = Percentile(latencies, 0.50);
  sample->p99_us = Percentile(latencies, 0.99);
  sample->requests = latencies.size();
  const uint64_t hits = service->metrics().CounterValue("cache/hit");
  const uint64_t misses = service->metrics().CounterValue("cache/miss");
  sample->hit_rate = hits + misses > 0
                         ? static_cast<double>(hits) /
                               static_cast<double>(hits + misses)
                         : 0;
  return 0;
}

int Run() {
  constexpr uint32_t kRequests = 400;
  const std::string dir = "bench_persist_data";
  if (StatusOr<std::vector<std::string>> names = ListDir(dir); names.ok()) {
    for (const std::string& file : *names) {
      (void)RemoveFileIfExists(dir + "/" + file);
    }
  }

  persist::DurableCatalogOptions catalog_options;
  catalog_options.data_dir = dir;
  catalog_options.snapshot_interval_s = 0;  // snapshot on shutdown only

  std::string sid;
  PhaseSample cold;
  {
    StatusOr<std::unique_ptr<persist::DurableCatalog>> catalog =
        persist::DurableCatalog::Open(catalog_options);
    if (!catalog.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", catalog.status().ToString().c_str());
      return 1;
    }
    ServiceOptions options;
    options.catalog = *std::move(catalog);
    OocqService service(options);
    StatusOr<std::string> created = service.CreateSession(kSchema);
    if (!created.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", created.status().ToString().c_str());
      return 1;
    }
    sid = *created;
    if (int rc = RunPhase(&service, sid, kRequests, &cold); rc != 0) return rc;
    // Destructor: drain + final snapshot with the warm cache inside.
  }
  if (persist::LatestSnapshotSeq(dir) == 0) {
    std::fprintf(stderr, "FAIL: shutdown left no snapshot in %s\n",
                 dir.c_str());
    return 1;
  }

  PhaseSample warm;
  uint64_t recovered_records = 0;
  {
    StatusOr<std::unique_ptr<persist::DurableCatalog>> catalog =
        persist::DurableCatalog::Open(catalog_options);
    if (!catalog.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", catalog.status().ToString().c_str());
      return 1;
    }
    recovered_records = (*catalog)->recovered().size();
    ServiceOptions options;
    options.catalog = *std::move(catalog);
    OocqService service(options);
    if (service.session_count() != 1) {
      std::fprintf(stderr, "FAIL: restart restored %zu sessions, want 1\n",
                   service.session_count());
      return 1;
    }
    if (int rc = RunPhase(&service, sid, kRequests, &warm); rc != 0) return rc;
  }

  if (warm.verdicts != cold.verdicts) {
    std::fprintf(stderr, "FAIL: warm verdicts differ from cold\n");
    return 1;
  }
  if (warm.hit_rate <= cold.hit_rate || warm.hit_rate == 0) {
    std::fprintf(stderr,
                 "FAIL: warm hit rate %.3f not above cold %.3f — the "
                 "restored cache did not serve the first pass\n",
                 warm.hit_rate, cold.hit_rate);
    return 1;
  }

  std::printf("cold  p50=%llu us  p99=%llu us  hit_rate=%.3f\n",
              static_cast<unsigned long long>(cold.p50_us),
              static_cast<unsigned long long>(cold.p99_us), cold.hit_rate);
  std::printf("warm  p50=%llu us  p99=%llu us  hit_rate=%.3f  "
              "(recovered %llu records)\n",
              static_cast<unsigned long long>(warm.p50_us),
              static_cast<unsigned long long>(warm.p99_us), warm.hit_rate,
              static_cast<unsigned long long>(recovered_records));

  std::FILE* out = std::fopen("BENCH_persist.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_persist.json");
    return 1;
  }
  BeginBenchJson(out);
  std::fprintf(out,
               "  \"workload\": \"E13 containment mix, %u requests, "
               "restart between runs\",\n",
               kRequests);
  std::fprintf(out,
               "  \"cold\": {\"p50_us\": %llu, \"p99_us\": %llu, "
               "\"hit_rate\": %.3f},\n",
               static_cast<unsigned long long>(cold.p50_us),
               static_cast<unsigned long long>(cold.p99_us), cold.hit_rate);
  std::fprintf(out,
               "  \"warm\": {\"p50_us\": %llu, \"p99_us\": %llu, "
               "\"hit_rate\": %.3f},\n",
               static_cast<unsigned long long>(warm.p50_us),
               static_cast<unsigned long long>(warm.p99_us), warm.hit_rate);
  std::fprintf(out, "  \"recovered_records\": %llu\n}\n",
               static_cast<unsigned long long>(recovered_records));
  std::fclose(out);
  std::printf("wrote BENCH_persist.json\n");
  return 0;
}

}  // namespace
}  // namespace oocq::bench

int main() { return oocq::bench::Run(); }
