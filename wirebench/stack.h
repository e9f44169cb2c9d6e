#ifndef WIREBENCH_STACK_H_
#define WIREBENCH_STACK_H_

/// The served stack at each level the traced run peels:
///
///   level 1  WireStack     loopback TCP client → EventServer → service
///   level 2  HandlerStack  ProtocolHandler::Handle on the parsed frame
///   level 3  ServiceStack  OocqService::Execute / DefineQuery / LoadState
///   level 4  EngineStack   the engine entry points OocqService::Run calls
///
/// Every level owns its own copy of the session state and is driven
/// through the same set-up script, so a request does the same work at
/// each level (a decision that misses the cache at level 1 misses at
/// level 4 too). Each level renders the reply it would put on the wire,
/// so the checker covers all four.
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compile/program_cache.h"
#include "core/containment_cache.h"
#include "persist/catalog.h"
#include "query/query.h"
#include "schema/schema.h"
#include "server/event_server.h"
#include "server/protocol.h"
#include "server/service.h"
#include "state/state.h"
#include "workloads.h"

namespace wirebench {

/// oocq_serve's defaults: --workers=4 --queue=64 --threads=1 (and the
/// compiled fast paths on). `catalog` may be null.
oocq::server::ServiceOptions ServeOptions(
    std::shared_ptr<oocq::persist::DurableCatalog> catalog);
/// oocq_serve's transport defaults: --io_threads=8, loopback, port 0.
oocq::server::EventServerOptions WireOptions();
/// The durable-catalog policy of catalog_write: fsync on, the default
/// 200 µs group-commit window, no background snapshots (the shutdown
/// snapshot happens outside every timed interval).
oocq::persist::DurableCatalogOptions CatalogOptions(const std::string& dir);

/// Writes the catalog_write template (snapshot + WAL) into `dir`.
void WriteCatalogTemplate(const Workload& workload, const std::string& dir);

/// Fills every op's `expected` from the reference paths (interpreted
/// scan and tree walker: enable_compilation=false, no decision cache) or
/// from the generator's construction. Aborts the run when the two
/// disagree or the reference refuses a request.
void FillExpected(Workload* workload);

/// One span: a call at one level of the stack for one request.
enum class Layer : uint8_t {
  kWire,            // level 1: client round trip
  kHandle,          // level 2: ProtocolHandler::Handle
  kExecute,         // level 3: OocqService entry point
  kParseSchema,     // level 4 ...
  kParseQuery,
  kParseState,
  kNormalize,
  kExpand,
  kContain,
  kUnionContain,
  kMinimize,
  kSatisfiable,
  kCompile,         // ProgramCache::GetOrCompile (hit or miss)
  kCompileMiss,     // ProgramCache::GetOrCompile that compiled
  kEvalForward,
  kEvalReverse,
  kLog,             // DurableCatalog::Log
  kRecovery,        // DurableCatalog::Open + restore
  kCount,
};
const char* LayerName(Layer layer);
int LayerLevel(Layer layer);

struct Span {
  uint32_t request = 0;  // stream index; kSetupRequest for set-up calls
  Layer layer = Layer::kWire;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};
inline constexpr uint32_t kSetupRequest = 0xFFFFFFFFu;

int64_t NowNs();

/// Spans stay in memory until the run ends.
class SpanLog {
 public:
  void Add(uint32_t request, Layer layer, int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{request, layer, start_ns, end_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one line per span: request, name, level, parent level, start
  /// and end (ns, steady clock).
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// A blocking loopback client on one connection.
class Client {
 public:
  explicit Client(uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `frame` and reads one complete reply (through its "." line).
  /// False when the connection failed.
  bool RoundTrip(const std::string& frame, std::string* reply);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Level 1.
class WireStack {
 public:
  /// Opens the catalog in `data_dir` when the workload is durable.
  explicit WireStack(const Workload& workload, const std::string& data_dir);
  ~WireStack();
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;

  bool RoundTrip(const Op& op, std::string* reply) {
    return client_->RoundTrip(op.frame, reply);
  }
  oocq::server::OocqService& service() { return *service_; }

 private:
  std::unique_ptr<oocq::server::OocqService> service_;
  std::unique_ptr<oocq::server::EventServer> server_;
  std::unique_ptr<Client> client_;
};

/// Level 2.
class HandlerStack {
 public:
  HandlerStack(const Workload& workload, const std::string& data_dir);
  std::string Handle(const Op& op);

 private:
  std::unique_ptr<oocq::server::OocqService> service_;
  std::unique_ptr<oocq::server::ProtocolHandler> handler_;
};

/// Level 3.
class ServiceStack {
 public:
  ServiceStack(const Workload& workload, const std::string& data_dir);
  std::string Apply(const Op& op);

 private:
  std::unique_ptr<oocq::server::OocqService> service_;
};

/// Level 4: the engine calls OocqService::Run (and the registry
/// mutations) make for each request kind, in the same order and with the
/// same options, each wrapped in a span.
class EngineStack {
 public:
  EngineStack(const Workload& workload, const std::string& data_dir,
              SpanLog* spans);
  std::string Apply(const Op& op, uint32_t request);
  /// The session cache's decided verdicts as catalog records.
  std::vector<oocq::persist::Record> ExportCache() const;

 private:
  template <typename F>
  auto Timed(Layer layer, uint32_t request, F&& call);

  oocq::StatusOr<oocq::ConjunctiveQuery> Resolve(const std::string& text,
                                                 uint32_t request);
  oocq::StatusOr<oocq::UnionQuery> Expand(const oocq::ConjunctiveQuery& query,
                                          uint32_t request);
  oocq::StatusOr<bool> ContainedPipeline(const oocq::ConjunctiveQuery& q1,
                                         const oocq::ConjunctiveQuery& q2,
                                         uint32_t request);
  oocq::Status CreateSession(const std::string& schema_text,
                             uint32_t request);
  oocq::Status Recover(const std::string& data_dir);

  SpanLog* spans_;
  oocq::server::ServiceOptions options_;
  oocq::EngineOptions engine_;
  std::unique_ptr<oocq::Schema> schema_;
  std::map<std::string, oocq::ConjunctiveQuery> named_;
  std::unique_ptr<oocq::ContainmentCache> cache_;
  std::unique_ptr<oocq::compile::ProgramCache> programs_;
  std::optional<oocq::State> state_;
  std::shared_ptr<oocq::persist::DurableCatalog> catalog_;
};

/// The payload lines joined the way the protocol hands them to the
/// service (each line newline-terminated): the query text of unary verbs
/// and DEFINE, the schema of SESSION NEW, the state of STATE.
std::string JoinPayload(const std::vector<std::string>& lines);

}  // namespace wirebench

#endif  // WIREBENCH_STACK_H_
