#include "support/failpoint.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "support/metrics.h"
#include "support/status_macros.h"

namespace oocq {

namespace {

enum class Action { kOff, kError, kDelay, kCrash };

/// One armed failpoint. `from_hit`/`to_hit` encode the selector as an
/// inclusive hit window: "@N" fires exactly on hit N (from == to == N),
/// "@N+" on hit N and after (to == max), "@A-B" on hits A through B,
/// no selector on every hit (1..max).
struct Arm {
  Action action = Action::kOff;
  StatusCode code = StatusCode::kUnavailable;
  uint64_t delay_ms = 0;
  uint64_t from_hit = 1;
  uint64_t to_hit = UINT64_MAX;
};

struct PointState {
  Arm arm;
  uint64_t hits = 0;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, PointState> points;
};

Registry& TheRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

std::once_flag g_env_once;

/// Parses a decimal hit number; 0 and non-digits are errors.
StatusOr<uint64_t> ParseHit(const std::string& digits) {
  if (digits.empty()) {
    return Status::InvalidArgument("failpoint selector '@' needs a number");
  }
  uint64_t n = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad failpoint hit selector '@" + digits +
                                     "'");
    }
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  if (n == 0) {
    return Status::InvalidArgument("failpoint hits are 1-based");
  }
  return n;
}

StatusOr<Arm> ParseAction(const std::string& text) {
  Arm arm;
  std::string body = text;
  // Split off the "@N" / "@N+" / "@A-B" hit selector first.
  size_t at = body.rfind('@');
  if (at != std::string::npos) {
    std::string selector = body.substr(at + 1);
    body = body.substr(0, at);
    bool plus = !selector.empty() && selector.back() == '+';
    if (plus) selector.pop_back();
    size_t dash = selector.find('-');
    if (dash != std::string::npos) {
      if (plus) {
        return Status::InvalidArgument("failpoint selector '@" + selector +
                                       "+' mixes range and '+'");
      }
      OOCQ_ASSIGN_OR_RETURN(arm.from_hit, ParseHit(selector.substr(0, dash)));
      OOCQ_ASSIGN_OR_RETURN(arm.to_hit, ParseHit(selector.substr(dash + 1)));
      if (arm.to_hit < arm.from_hit) {
        return Status::InvalidArgument("failpoint range '@" + selector +
                                       "' is backwards");
      }
    } else {
      OOCQ_ASSIGN_OR_RETURN(arm.from_hit, ParseHit(selector));
      arm.to_hit = plus ? UINT64_MAX : arm.from_hit;
    }
  }
  // Then the ":ARG" payload.
  std::string argument;
  size_t colon = body.find(':');
  if (colon != std::string::npos) {
    argument = body.substr(colon + 1);
    body = body.substr(0, colon);
  }
  if (body == "off") {
    arm.action = Action::kOff;
  } else if (body == "error") {
    arm.action = Action::kError;
    if (!argument.empty()) {
      if (argument == "UNAVAILABLE") {
        arm.code = StatusCode::kUnavailable;
      } else if (argument == "DEADLINE_EXCEEDED") {
        arm.code = StatusCode::kDeadlineExceeded;
      } else if (argument == "RESOURCE_EXHAUSTED") {
        arm.code = StatusCode::kResourceExhausted;
      } else if (argument == "INTERNAL") {
        arm.code = StatusCode::kInternal;
      } else {
        return Status::InvalidArgument("bad failpoint error code '" +
                                       argument + "'");
      }
    }
  } else if (body == "delay") {
    arm.action = Action::kDelay;
    for (char c : argument) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("bad failpoint delay '" + argument +
                                       "'");
      }
      arm.delay_ms = arm.delay_ms * 10 + static_cast<uint64_t>(c - '0');
    }
    if (argument.empty()) {
      return Status::InvalidArgument("delay needs ':MS'");
    }
  } else if (body == "crash") {
    arm.action = Action::kCrash;
  } else {
    return Status::InvalidArgument("unknown failpoint action '" + body + "'");
  }
  return arm;
}

/// The fire decision + side effect for one counted hit. Returns the
/// injected error (never Ok) when the action is `error` and the selector
/// matched; Ok otherwise.
Status FireLocked(const std::string& name, PointState& point,
                  std::unique_lock<std::mutex>& lock) {
  ++point.hits;
  const Arm& arm = point.arm;
  if (arm.action == Action::kOff) return Status::Ok();
  const uint64_t hit = point.hits;
  const bool selected = hit >= arm.from_hit && hit <= arm.to_hit;
  if (!selected) return Status::Ok();
  MetricAdd("failpoint/fired", 1);
  switch (arm.action) {
    case Action::kError:
      return Status(arm.code,
                    "injected failure at failpoint '" + name + "'");
    case Action::kDelay: {
      const uint64_t ms = arm.delay_ms;
      lock.unlock();  // never sleep under the registry mutex
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      return Status::Ok();
    }
    case Action::kCrash:
      std::fprintf(stderr, "failpoint '%s': injected crash\n", name.c_str());
      std::abort();
    case Action::kOff:
      break;
  }
  return Status::Ok();
}

/// Iterative `*`/`?` glob match (the classic two-pointer backtrack).
bool GlobMatch(const std::string& glob, const std::string& text) {
  size_t g = 0, t = 0;
  size_t star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (g < glob.size() && (glob[g] == '?' || glob[g] == text[t])) {
      ++g;
      ++t;
    } else if (g < glob.size() && glob[g] == '*') {
      star = g++;
      mark = t;
    } else if (star != std::string::npos) {
      g = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (g < glob.size() && glob[g] == '*') ++g;
  return g == glob.size();
}

}  // namespace

void Failpoints::BootstrapFromEnv() {
  std::call_once(g_env_once, [] {
    const char* env = std::getenv("OOCQ_FAILPOINTS");
    if (env != nullptr && env[0] != '\0') {
      (void)Failpoints::Configure(env);
    }
    env_checked_.store(true, std::memory_order_release);
  });
}

const std::vector<std::string>& Failpoints::KnownNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "wal/append",        // persist/wal.cc: before the frame write
      "wal/fsync",         // persist/wal.cc: before the group-commit fsync
      "snapshot/write",    // persist/snapshot.cc: before the durable write
      "snapshot/load",     // persist/snapshot.cc: before reading a file
      "pool/dispatch",     // support/thread_pool.cc: before a task runs;
                           // server/event_server.cc: as a frame starts
      "core/subset_scan",  // core/containment.cc: head of every subset decision
      "cache/lookup",      // core/containment_cache.cc: on entry
      "service/execute",   // server/service.cc: before the request body
      "tcp/accept",        // server/event_server.cc: after accept() returns
      "tcp/read",          // server/event_server.cc: before each recv()
      "tcp/write",         // server/event_server.cc: before a reply is queued
      "repl/ship",         // server/protocol.cc: before serving REPL STATE/SUBSCRIBE
      "repl/apply",        // server/service.cc: before applying a shipped record
      "repl/promote",      // server/service.cc: before a follower promotes
      "repl/fence",        // server/service.cc: when a primary fences itself
      "net/partition",     // replicate/peer.cc + follower.cc: per-peer black-hole
  };
  return *names;
}

Status Failpoints::Configure(const std::string& spec) {
  if (spec.empty()) return Status::Ok();
  // Parse the whole spec before arming anything, so a bad entry cannot
  // leave a half-armed configuration behind.
  std::vector<std::pair<std::string, Arm>> parsed;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    std::string entry = spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    start = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("failpoint entry '" + entry +
                                     "' is not name=action");
    }
    OOCQ_ASSIGN_OR_RETURN(Arm arm, ParseAction(entry.substr(eq + 1)));
    parsed.emplace_back(entry.substr(0, eq), arm);
  }

  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& [name, arm] : parsed) {
    PointState& point = registry.points[name];
    const bool was_armed = point.arm.action != Action::kOff;
    const bool now_armed = arm.action != Action::kOff;
    point.arm = arm;
    point.hits = 0;  // arming (or re-arming) restarts the hit counter
    if (was_armed != now_armed) {
      if (now_armed) {
        armed_.fetch_add(1, std::memory_order_relaxed);
      } else {
        armed_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
  }
  return Status::Ok();
}

void Failpoints::Reset() {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.points.clear();
  armed_.store(0, std::memory_order_relaxed);
}

Status Failpoints::CheckSlow(const char* name) {
  Registry& registry = TheRegistry();
  std::unique_lock<std::mutex> lock(registry.mu);
  auto it = registry.points.find(name);
  if (it == registry.points.end()) {
    // Sites self-register so HitNames() shows coverage even for points
    // that were never armed.
    it = registry.points.emplace(name, PointState{}).first;
  }
  return FireLocked(it->first, it->second, lock);
}

Status Failpoints::CheckLabeledSlow(const char* site,
                                    const std::string& label) {
  Registry& registry = TheRegistry();
  std::unique_lock<std::mutex> lock(registry.mu);
  // Fire the bare site first (self-registers, and supports the unlabeled
  // `net/partition=error` arm that black-holes every peer), then every
  // armed `site:<glob>` point whose glob matches this peer label.
  std::vector<std::string> to_fire;
  const std::string base(site);
  to_fire.push_back(base);
  const std::string prefix = base + ":";
  for (const auto& [name, point] : registry.points) {
    if (point.arm.action == Action::kOff) continue;
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    if (GlobMatch(name.substr(prefix.size()), label)) to_fire.push_back(name);
  }
  Status result = Status::Ok();
  for (const std::string& name : to_fire) {
    // FireLocked may release the lock (delay action); re-take it and
    // re-find by name so map mutation between fires is safe.
    if (!lock.owns_lock()) lock.lock();
    auto it = registry.points.find(name);
    if (it == registry.points.end()) {
      it = registry.points.emplace(name, PointState{}).first;
    }
    Status fired = FireLocked(it->first, it->second, lock);
    if (result.ok() && !fired.ok()) result = fired;
  }
  return result;
}

uint64_t Failpoints::HitCount(const std::string& name) {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.points.find(name);
  return it == registry.points.end() ? 0 : it->second.hits;
}

std::vector<std::string> Failpoints::HitNames() {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> names;
  for (const auto& [name, point] : registry.points) {
    if (point.hits != 0) names.push_back(name);
  }
  return names;
}

}  // namespace oocq
