/// wirebench — the repository-level benchmark: one process starts an
/// in-process OocqService behind an EventServer with oocq_serve's
/// defaults and drives it over loopback TCP with a seeded closed loop on
/// one connection.
///
///   wirebench --workload NAME --seed N --seconds S --trace 0|1
///             [--work-dir DIR] [--flip-expected I]
///
/// --trace 0 prints the end-to-end metrics (setup_s, throughput_ops,
/// p50_us, p99_us, peak_rss_mb). --trace 1 replays a fixed prefix of the
/// same stream down the layer stack (stack.h) and prints the per-layer
/// metrics. Either way the last stdout line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}; the line before it is
/// the run record (stream hash, CPU seconds, host steal share, settings,
/// per-population latencies). README.md in this directory explains the
/// workloads and the method.
#include <malloc.h>
#include <sched.h>
#include <sys/wait.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "stack.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace wirebench {
namespace {

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "wirebench: %s\n", what.c_str());
  std::exit(1);
}

// ---- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/wirebench/work";
  /// Test hook: flips the expected verdict of stream request I, so the
  /// checker must report that reply as wrong.
  long long flip_expected = -1;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) Die("missing value for " + key);
    std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--flip-expected") {
      args.flip_expected = std::atoll(value.c_str());
    } else {
      Die("unknown flag " + key);
    }
  }
  if (args.seconds <= 0) Die("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Die("--trace takes 0 or 1");
  return args;
}

// ---- small numeric helpers -------------------------------------------------

/// Shortest round-trip rendering: every digit the double holds.
std::string Num(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

/// Nearest-rank quantile of unsorted samples (ns) in µs.
double QuantileUs(std::vector<int64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return static_cast<double>(samples[rank - 1]) / 1000.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

/// Peak resident set, MiB: VmHWM from /proc/self/status (ru_maxrss when
/// unreadable).
double HighWaterMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Returns freed input-generation memory to the kernel and restarts the
/// peak-RSS count from the current resident set, so peak_rss_mb covers
/// the set-ups and the loop (with the generated stream still resident,
/// reported as generator_rss_mb). False when the kernel refuses.
bool ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return static_cast<bool>(clear);
}

double CpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// The aggregate "cpu" line of /proc/stat: steal (8th field) and the sum
/// of the first eight fields.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    stat >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) / total;
}

std::string FilesystemName(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

/// Counters of one StatsText() exposition (summary and gauge lines are
/// skipped; absent counters read 0).
std::map<std::string, double> ParseStats(const std::string& text) {
  std::map<std::string, double> values;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                nullptr);
  }
  return values;
}

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  return cpus;
}

/// Moves every thread of the process to `cpu`; threads started later
/// inherit the mask of the thread that starts them. The served stack
/// always runs on one CPU: a request's handoffs (client → event loop →
/// dispatch worker → service pool and back) then cost same-CPU context
/// switches instead of cross-vCPU wakeups, whose latency on a shared VM
/// host swings with the neighbours' load. Called between requests, when
/// every server thread is blocked.
void MoveProcessTo(int cpu) {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10));
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(tid, sizeof(one), &one);
  }
}

/// Filled in main, before any served stack starts.
std::vector<int> g_cpus;

// ---- inputs ----------------------------------------------------------------

struct Inputs {
  Workload workload;
  uint64_t hash = 0;
  double generate_s = 0;
  double reference_s = 0;
  uint64_t generator_rss_bytes = 0;
  std::string run_dir;       // this process's directory under --work-dir
  std::string template_dir;  // catalog_write: the catalog every set-up copies
  bool peak_reset = false;   // peak RSS counts from after input generation
};

void FlipExpected(Workload* workload, long long index) {
  for (size_t i = static_cast<size_t>(index); i < workload->stream.size();
       ++i) {
    std::string expected = *workload->stream[i].expected;
    const size_t eq = expected.find('=');
    const size_t nl = expected.find('\n');
    if (expected.rfind("OK ", 0) != 0 || eq == std::string::npos ||
        eq > nl || (expected[eq + 1] != '0' && expected[eq + 1] != '1')) {
      continue;
    }
    expected[eq + 1] = expected[eq + 1] == '1' ? '0' : '1';
    workload->stream[i].expected =
        std::make_shared<const std::string>(std::move(expected));
    return;
  }
  Die("--flip-expected: no verdict reply at or after that index");
}

bool WriteAll(int fd, const std::string& bytes) {
  for (size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

void AppendU32(std::string* out, uint32_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Runs FillExpected in a child process and takes the expected replies
/// back through a pipe: the distinct reply texts, then one index per
/// request. The reference pass allocates from several threads; in the
/// child, their allocator arenas and peak memory never reach the
/// process that serves, which keeps one arena (see main).
void FillExpectedInChild(Workload* workload) {
  int fds[2];
  if (::pipe(fds) != 0) Die("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    FillExpected(workload);  // exits non-zero itself on a disagreement
    std::unordered_map<std::string, uint32_t> ids;
    std::string texts, indices;
    for (const auto* ops : {&workload->setup, &workload->stream}) {
      for (const Op& op : *ops) {
        auto [it, added] = ids.emplace(*op.expected, ids.size());
        if (added) {
          AppendU32(&texts, static_cast<uint32_t>(op.expected->size()));
          texts += *op.expected;
        }
        AppendU32(&indices, it->second);
      }
    }
    std::string out;
    AppendU32(&out, static_cast<uint32_t>(ids.size()));
    out += texts;
    out += indices;
    ::_exit(WriteAll(fds[1], out) ? 0 : 1);
  }
  ::close(fds[1]);
  std::string in;
  char buf[1 << 16];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    in.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("the reference pass failed");
  }
  size_t at = 0;
  auto next_u32 = [&] {
    uint32_t value = 0;
    if (at + sizeof(value) > in.size()) Die("reference pass: short reply");
    std::memcpy(&value, in.data() + at, sizeof(value));
    at += sizeof(value);
    return value;
  };
  std::vector<std::shared_ptr<const std::string>> replies(next_u32());
  for (auto& reply : replies) {
    const uint32_t size = next_u32();
    if (at + size > in.size()) Die("reference pass: short reply");
    reply = std::make_shared<const std::string>(in, at, size);
    at += size;
  }
  for (auto* ops : {&workload->setup, &workload->stream}) {
    for (Op& op : *ops) {
      const uint32_t id = next_u32();
      if (id >= replies.size()) Die("reference pass: bad reply index");
      op.expected = replies[id];
    }
  }
}

Inputs Prepare(const Args& args, size_t stream_ops) {
  Inputs inputs;
  int64_t start = NowNs();
  if (!MakeWorkload(args.workload, args.seed, stream_ops, &inputs.workload)) {
    Die("unknown workload '" + args.workload + "'");
  }
  inputs.hash = StreamHash(inputs.workload);
  inputs.generate_s = (NowNs() - start) / 1e9;
  inputs.generator_rss_bytes = ResidentBytes();
  start = NowNs();
  FillExpectedInChild(&inputs.workload);
  inputs.reference_s = (NowNs() - start) / 1e9;
  // One malloc arena for every thread from here on. With one arena per
  // thread, peak RSS depended on which of the twelve worker threads
  // happened to build a large reply, and moved between 19 and 28 MB
  // across eval_join runs of one build; small allocations stay
  // thread-local in tcache either way. No thread has started yet.
  ::mallopt(M_ARENA_MAX, 1);
  if (args.flip_expected >= 0) {
    FlipExpected(&inputs.workload, args.flip_expected);
  }
  inputs.run_dir =
      args.work_dir + "/" + args.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(inputs.run_dir, ec);
  std::filesystem::create_directories(inputs.run_dir, ec);
  if (ec) Die("cannot create " + inputs.run_dir + ": " + ec.message());
  if (inputs.workload.durable) {
    inputs.template_dir = inputs.run_dir + "/template";
    WriteCatalogTemplate(inputs.workload, inputs.template_dir);
  }
  inputs.peak_reset = ResetPeakRss();
  return inputs;
}

/// A fresh copy of the catalog template for one stack ("" when the
/// workload keeps no catalog). Copying is input preparation: it happens
/// before a set-up's clock starts.
std::string FreshDataDir(const Inputs& inputs, const std::string& label) {
  if (!inputs.workload.durable) return "";
  const std::string dir = inputs.run_dir + "/" + label;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::copy(inputs.template_dir, dir,
                        std::filesystem::copy_options::recursive, ec);
  if (ec) Die("cannot copy the catalog template: " + ec.message());
  return dir;
}

template <typename Apply>
void RunSetup(const Workload& workload, const char* level, Apply&& apply) {
  for (const Op& op : workload.setup) {
    const std::string reply = apply(op);
    if (reply != *op.expected) {
      Die(std::string("set-up at the ") + level + " level: " + op.command +
          " answered\n" + reply + "expected\n" + *op.expected);
    }
  }
}

void RunWireSetup(const Workload& workload, WireStack* wire) {
  RunSetup(workload, "wire", [&](const Op& op) {
    std::string reply;
    if (!wire->RoundTrip(op, &reply)) Die("connection lost during set-up");
    return reply;
  });
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// The run record's common part: what was run, on what, and how.
std::string RecordHead(const Args& args, const Inputs& inputs) {
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(inputs.hash));
  std::string out = "\"workload\": \"" + args.workload + "\"" +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"trace\": " + std::to_string(args.trace) +
                    ", \"seconds\": " + Num(args.seconds) +
                    ", \"stream_hash\": \"" + hash + "\"" +
                    ", \"stream_ops\": " +
                    std::to_string(inputs.workload.stream.size()) +
                    ", \"generate_s\": " + Num(inputs.generate_s) +
                    ", \"reference_s\": " + Num(inputs.reference_s) +
                    ", \"generator_rss_mb\": " +
                    Num(inputs.generator_rss_bytes / 1048576.0) +
                    ", \"sizes\": {";
  bool first = true;
  for (const auto& [key, value] : inputs.workload.sizes) {
    out += (first ? "\"" : ", \"") + key + "\": " + std::to_string(value);
    first = false;
  }
  // The end-to-end run moves over every allowed CPU, window by window;
  // the traced run stays on the last.
  std::string cpus;
  for (size_t i = args.trace == 1 && !g_cpus.empty() ? g_cpus.size() - 1 : 0;
       i < g_cpus.size(); ++i) {
    cpus += (cpus.empty() ? "" : ", ") + std::to_string(g_cpus[i]);
  }
  out +=
      "}, \"settings\": {\"transport\": \"event\", \"connections\": 1, "
      "\"loop\": \"closed\", \"workers\": 4, \"queue\": 64, "
      "\"io_threads\": 8, \"threads\": 1, \"compile\": true, "
      "\"cpus\": [" + cpus + "]" +
      ", \"malloc_arenas\": 1";
  if (inputs.workload.durable) {
    out += ", \"fsync\": true, \"group_commit_window_us\": 200, "
           "\"snapshot_interval_s\": 0, \"data_dir_fs\": \"" +
           FilesystemName(inputs.run_dir) + "\"";
  }
  out += "}";
  return out;
}

/// Per-population latency, and where the overall p50/p99 fall inside it
/// (the share of the population at or below each).
std::string PopulationStats(const Workload& workload,
                            const std::vector<int64_t>& latencies) {
  std::map<std::string, std::vector<int64_t>> by_population;
  for (size_t i = 0; i < latencies.size(); ++i) {
    by_population[workload.stream[i % workload.stream.size()].population]
        .push_back(latencies[i]);
  }
  const double p50 = QuantileUs(latencies, 0.50);
  const double p99 = QuantileUs(latencies, 0.99);
  std::string out = "{";
  bool first = true;
  for (const auto& [population, samples] : by_population) {
    size_t at_p50 = 0, at_p99 = 0;
    for (int64_t ns : samples) {
      if (ns / 1000.0 <= p50) ++at_p50;
      if (ns / 1000.0 <= p99) ++at_p99;
    }
    out += (first ? "\"" : ", \"") + population + "\": {\"n\": " +
           std::to_string(samples.size()) +
           ", \"p50_us\": " + Num(QuantileUs(samples, 0.50)) +
           ", \"p99_us\": " + Num(QuantileUs(samples, 0.99)) +
           ", \"min_us\": " + Num(QuantileUs(samples, 0.0)) +
           ", \"max_us\": " + Num(QuantileUs(samples, 1.0)) +
           ", \"share_le_p50\": " + Num(double(at_p50) / samples.size()) +
           ", \"share_le_p99\": " + Num(double(at_p99) / samples.size()) + "}";
    first = false;
  }
  return out + "}";
}

// ---- --trace 0: the end-to-end run -----------------------------------------

/// Set-ups per run; setup_s is their median. Each set-up serves an equal
/// slice of the loop: a fresh service per segment keeps decide_cold's
/// cache from growing with the run's throughput (peak RSS tracked it
/// within 10% when one service served the whole loop).
constexpr int kSetups = 20;
/// Each segment's loop is cut into this many windows of equal length,
/// and each window runs on the next allowed CPU in turn: the whole
/// process moves between two requests, when every server thread is
/// blocked. On a shared VM host each vCPU slows down on its own, for
/// seconds to minutes at a time (a pointer chase in L2 ran up to 40%
/// slower on one vCPU while the others held their speed), so a run
/// pinned to one vCPU took such a stretch in full. Rotating gives every
/// vCPU an even share of the loop and of the set-ups.
constexpr int kWindowsPerSegment = 3;

int RunEndToEnd(const Args& args, Inputs& inputs) {
  const Workload& workload = inputs.workload;
  const std::vector<Op>& stream = workload.stream;
  // Request n is stream[n % stream.size()]. The buffer is touched in full
  // up front, so peak RSS does not grow with the loop's throughput.
  const size_t capacity =
      workload.cyclic ? static_cast<size_t>(args.seconds * 50000)
                      : stream.size();
  std::vector<int64_t> latencies(capacity, 0);
  // Per window: requests and replies per second (run record only).
  std::vector<std::pair<size_t, double>> windows;
  size_t n = 0;
  uint64_t wrong = 0, errors = 0;
  std::vector<double> setups;
  int64_t loop_ns = 0;
  bool exhausted = false;
  const CpuTicks ticks_before = ReadCpuTicks();
  const double cpu_before = CpuSeconds();
  const int64_t segment_ns = static_cast<int64_t>(args.seconds * 1e9 / kSetups);
  auto next_cpu = [&] {
    if (!g_cpus.empty()) MoveProcessTo(g_cpus[windows.size() % g_cpus.size()]);
  };
  std::string reply;
  for (int r = 0; r < kSetups && errors == 0; ++r) {
    // Replacing the last segment's catalog with a fresh copy and handing
    // its freed memory back happen outside the clock. The set-up runs on
    // the CPU of the segment's first window.
    next_cpu();
    ::malloc_trim(0);
    const std::string dir = FreshDataDir(inputs, "segment");
    const int64_t setup_start = NowNs();
    WireStack wire(workload, dir);
    RunWireSetup(workload, &wire);
    const int64_t start = NowNs();
    setups.push_back((start - setup_start) / 1e9);
    const int64_t deadline = start + segment_ns;
    int w = 0;
    int64_t window_start = start;
    size_t window_first = n;
    int64_t end = start;
    auto close_window = [&](size_t last) {
      const double s = (end - window_start) / 1e9;
      windows.emplace_back(last - window_first,
                           s > 0 ? (last - window_first) / s : 0.0);
      window_first = last;
    };
    for (; end < deadline && n < capacity; ++n) {
      const Op& op = stream[n % stream.size()];
      const int64_t sent = NowNs();
      const bool delivered = wire.RoundTrip(op, &reply);
      end = NowNs();
      latencies[n] = end - sent;
      if (!delivered) {
        ++n;
        ++errors;
        break;
      }
      if (reply != *op.expected) {
        if (reply.rfind("ERR", 0) == 0) {
          ++errors;
        } else {
          ++wrong;
        }
        if (wrong + errors <= 3) {
          std::fprintf(stderr, "wirebench: request %zu (%s) answered\n%s"
                               "expected\n%s", n, op.command.c_str(),
                       reply.c_str(), op.expected->c_str());
        }
      }
      if (end >= start + segment_ns * (w + 1) / kWindowsPerSegment) {
        close_window(n + 1);
        if (++w < kWindowsPerSegment) {
          next_cpu();
          window_start = NowNs();
        }
      }
    }
    // The stream ran out or the connection failed inside a window.
    if (n > window_first) close_window(n);
    loop_ns += end - start;
    exhausted = exhausted || (n == capacity && end < deadline);
  }
  latencies.resize(n);
  const double loop_s = loop_ns / 1e9;
  const double cpu_loop = CpuSeconds() - cpu_before;
  const double steal = StealShare(ticks_before, ReadCpuTicks());

  const uint64_t attempted = latencies.size();
  const uint64_t failed = wrong + errors;
  std::string setups_text, windows_text;
  for (double s : setups) {
    setups_text += (setups_text.empty() ? "" : ", ") + Num(s);
  }
  for (const auto& [ops, rate] : windows) {
    windows_text += std::string(windows_text.empty() ? "" : ", ") + "[" +
                    std::to_string(ops) + ", " + Num(rate) + "]";
  }
  std::printf(
      "{\"run_record\": {%s, \"attempted\": %llu, \"failed\": %llu, "
      "\"wrong\": %llu, \"errors\": %llu, \"loop_s\": %s, "
      "\"stream_exhausted\": %s, \"setups_s\": [%s], "
      "\"windows\": {\"columns\": [\"ops\", \"ops_per_s\"], "
      "\"rows\": [%s]}, "
      "\"cpu_s_serving\": %s, \"cpu_s_process\": %s, \"steal_share\": %s, "
      "\"peak_rss_scope\": \"%s\", \"populations\": %s}}\n",
      RecordHead(args, inputs).c_str(),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(wrong),
      static_cast<unsigned long long>(errors), Num(loop_s).c_str(),
      exhausted ? "true" : "false", setups_text.c_str(), windows_text.c_str(),
      Num(cpu_loop).c_str(), Num(CpuSeconds()).c_str(), Num(steal).c_str(),
      inputs.peak_reset ? "serving" : "process",
      PopulationStats(workload, latencies).c_str());
  if (exhausted) {
    std::fprintf(stderr, "wirebench: the stream ran out after %.3f s\n",
                 loop_s);
  }
  PrintResult(failed == 0 && attempted > 0, attempted, failed,
              {{"setup_s", Median(setups), "s"},
               {"throughput_ops", attempted / loop_s, "1/s"},
               {"p50_us", QuantileUs(latencies, 0.50), "us"},
               {"p99_us", QuantileUs(latencies, 0.99), "us"},
               {"peak_rss_mb", HighWaterMb(), "MB"}});
  return 0;
}

// ---- --trace 1: the layer peel ---------------------------------------------

/// Per-request self time of each attribution bucket, in ns.
enum Bucket {
  kTransport,     // wire round trip − Handle
  kProtocol,      // Handle − Execute
  kService,       // Execute − the engine calls
  kEngineBase,    // + Layer: one bucket per level-4 layer
};
constexpr int kBuckets = kEngineBase + static_cast<int>(Layer::kCount);

int EngineBucket(Layer layer) { return kEngineBase + static_cast<int>(layer); }

int RunTraced(const Args& args, Inputs& inputs) {
  const Workload& workload = inputs.workload;
  const size_t count =
      std::min(TracedOps(workload.name, args.seconds), workload.stream.size());
  uint64_t failed = 0;
  auto check = [&](const Op& op, const std::string& reply, const char* level) {
    if (reply == *op.expected) return;
    if (++failed <= 3) {
      std::fprintf(stderr, "wirebench: %s level: %s answered\n%sexpected\n%s",
                   level, op.command.c_str(), reply.c_str(),
                   op.expected->c_str());
    }
  };

  // Untraced prefix on its own copy: the untraced p50 the residual and
  // overhead are read against, and the STATS counters diffed across it.
  std::vector<int64_t> untraced;
  std::map<std::string, double> before, after;
  uint64_t user_bytes = 0;
  const CpuTicks ticks_before = ReadCpuTicks();
  const double cpu_before = CpuSeconds();
  {
    WireStack wire(workload, FreshDataDir(inputs, "untraced"));
    RunWireSetup(workload, &wire);
    before = ParseStats(wire.service().StatsText());
    std::string reply;
    for (size_t i = 0; i < count; ++i) {
      const Op& op = workload.stream[i];
      const int64_t sent = NowNs();
      if (!wire.RoundTrip(op, &reply)) Die("connection lost");
      untraced.push_back(NowNs() - sent);
      check(op, reply, "untraced wire");
      if (op.verb == Verb::kDefine) {
        user_bytes += JoinPayload(op.payload).size();
      }
    }
    after = ParseStats(wire.service().StatsText());
  }

  // The four levels, each on its own copy of the session state.
  SpanLog spans;
  WireStack wire(workload, FreshDataDir(inputs, "level1"));
  RunWireSetup(workload, &wire);
  HandlerStack handler(workload, FreshDataDir(inputs, "level2"));
  RunSetup(workload, "handler",
           [&](const Op& op) { return handler.Handle(op); });
  ServiceStack service(workload, FreshDataDir(inputs, "level3"));
  RunSetup(workload, "service",
           [&](const Op& op) { return service.Apply(op); });
  // Level 4 runs on a thread of its own, as requests do on the service's
  // pool workers (the main thread's heap holds the generated stream).
  oocq::ThreadPool engine_thread(1);
  auto on_engine = [&](const std::function<void()>& task) {
    engine_thread.Submit(task).wait();
  };
  std::unique_ptr<EngineStack> engine;
  const std::string level4_dir = FreshDataDir(inputs, "level4");
  on_engine([&] {
    engine = std::make_unique<EngineStack>(workload, level4_dir, &spans);
    RunSetup(workload, "engine",
             [&](const Op& op) { return engine->Apply(op, kSetupRequest); });
  });

  std::string reply;
  for (size_t i = 0; i < count; ++i) {
    const Op& op = workload.stream[i];
    const uint32_t id = static_cast<uint32_t>(i);
    int64_t start = NowNs();
    if (!wire.RoundTrip(op, &reply)) Die("connection lost");
    spans.Add(id, Layer::kWire, start, NowNs());
    check(op, reply, "wire");
    start = NowNs();
    reply = handler.Handle(op);
    spans.Add(id, Layer::kHandle, start, NowNs());
    check(op, reply, "handler");
    start = NowNs();
    reply = service.Apply(op);
    spans.Add(id, Layer::kExecute, start, NowNs());
    check(op, reply, "service");
    on_engine([&] { reply = engine->Apply(op, id); });
    check(op, reply, "engine");
  }
  on_engine([&] { engine.reset(); });
  const double cpu_s = CpuSeconds() - cpu_before;
  const double steal = StealShare(ticks_before, ReadCpuTicks());

  // Self times per request and bucket.
  std::vector<std::vector<int64_t>> self(kBuckets,
                                         std::vector<int64_t>(count, 0));
  std::vector<std::vector<bool>> called(kBuckets,
                                        std::vector<bool>(count, false));
  std::vector<int64_t> wire_ns(count, 0), handle_ns(count, 0),
      execute_ns(count, 0), engine_ns(count, 0);
  std::vector<double> compile_miss_us, parse_state_us, recovery_s;
  for (const Span& span : spans.spans()) {
    const int64_t ns = span.end_ns - span.start_ns;
    if (span.layer == Layer::kCompileMiss) compile_miss_us.push_back(ns / 1e3);
    if (span.layer == Layer::kParseState) parse_state_us.push_back(ns / 1e3);
    if (span.layer == Layer::kRecovery) recovery_s.push_back(ns / 1e9);
    if (span.request == kSetupRequest) continue;
    const size_t i = span.request;
    switch (span.layer) {
      case Layer::kWire:
        wire_ns[i] += ns;
        break;
      case Layer::kHandle:
        handle_ns[i] += ns;
        break;
      case Layer::kExecute:
        execute_ns[i] += ns;
        break;
      default: {
        const int bucket = EngineBucket(span.layer);
        self[bucket][i] += ns;
        called[bucket][i] = true;
        engine_ns[i] += ns;
        break;
      }
    }
  }
  for (size_t i = 0; i < count; ++i) {
    self[kTransport][i] = wire_ns[i] - handle_ns[i];
    self[kProtocol][i] = handle_ns[i] - execute_ns[i];
    self[kService][i] = execute_ns[i] - engine_ns[i];
    called[kTransport][i] = called[kProtocol][i] = called[kService][i] = true;
  }
  // p50 over the requests that reached the bucket (a layer's cost when it
  // runs), and p50 over all requests (its share of the median request).
  auto p50_called = [&](int bucket) {
    std::vector<int64_t> samples;
    for (size_t i = 0; i < count; ++i) {
      if (called[bucket][i]) samples.push_back(self[bucket][i]);
    }
    return QuantileUs(samples, 0.5);
  };
  // The median requests: those whose untraced latency ranks within
  // [45%, 55%]. Their layers' median self times should add up to the
  // untraced p50; what does not is the residual.
  std::vector<size_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return untraced[a] < untraced[b]; });
  const size_t band_lo = count * 45 / 100;
  const size_t band_hi = std::max(band_lo + 1, count * 55 / 100);
  double layer_sum_us = 0;
  for (int bucket = 0; bucket < kBuckets; ++bucket) {
    std::vector<int64_t> band;
    for (size_t k = band_lo; k < band_hi; ++k) {
      band.push_back(self[bucket][order[k]]);
    }
    layer_sum_us += QuantileUs(band, 0.5);
  }
  const double untraced_p50 = QuantileUs(untraced, 0.5);
  const double traced_p50 = QuantileUs(wire_ns, 0.5);

  // STATS counters diffed across the untraced prefix.
  auto delta = [&](const char* name) {
    auto a = after.find(name);
    auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  };
  const double ops = static_cast<double>(count);
  auto per_op = [&](const char* name) { return delta(name) / ops; };
  auto ratio = [](double part, double whole) {
    return whole == 0 ? 0.0 : part / whole;
  };
  const double hits = delta("oocq_cache_hit");
  const double misses = delta("oocq_cache_miss");
  const double scans = delta("oocq_compile_mask_scans");
  const double fallbacks = delta("oocq_compile_mask_fallbacks");
  const double program_hits = delta("oocq_compile_cache_hits");
  const double program_misses = delta("oocq_compile_cache_misses");

  std::vector<Metric> metrics = {
      {"server.transport_us", p50_called(kTransport), "us"},
      {"server.protocol_us", p50_called(kProtocol), "us"},
      {"server.service_us", p50_called(kService), "us"},
      {"server.loop_wakeups_per_op", per_op("oocq_server_loop_wakeups"),
       "1/op"},
      {"parser.query_us", p50_called(EngineBucket(Layer::kParseQuery)), "us"},
      {"parser.state_us", Median(parse_state_us), "us"},
      {"query.normalize_us", p50_called(EngineBucket(Layer::kNormalize)), "us"},
      {"core.expand_us", p50_called(EngineBucket(Layer::kExpand)), "us"},
      {"core.raw_disjuncts_per_op", per_op("oocq_expand_raw_disjuncts"),
       "1/op"},
      {"core.sat_checks_per_op", per_op("oocq_satisfiability_checks"), "1/op"},
      {"core.satisfiable_us", p50_called(EngineBucket(Layer::kSatisfiable)),
       "us"},
      {"core.contain_us", p50_called(EngineBucket(Layer::kContain)), "us"},
      {"core.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"core.mapping_steps_per_op", per_op("oocq_containment_mapping_steps"),
       "1/op"},
      {"core.union_contain_us", p50_called(EngineBucket(Layer::kUnionContain)),
       "us"},
      {"core.minimize_us", p50_called(EngineBucket(Layer::kMinimize)), "us"},
      {"core.membership_subsets_per_op",
       per_op("oocq_containment_membership_subsets"), "1/op"},
      {"core.subsets_skipped_per_op",
       per_op("oocq_containment_membership_subsets_skipped"), "1/op"},
      {"core.redundancy_pairs_per_op", per_op("oocq_redundancy_pairs"), "1/op"},
      {"compile.mask_scans_per_op", scans / ops, "1/op"},
      {"compile.mask_fallback_ratio", ratio(fallbacks, scans + fallbacks),
       "ratio"},
      {"compile.compile_us", Median(compile_miss_us), "us"},
      {"compile.program_cache_hit_ratio",
       ratio(program_hits, program_hits + program_misses), "ratio"},
      {"state.eval_forward_us", p50_called(EngineBucket(Layer::kEvalForward)),
       "us"},
      {"state.eval_reverse_us", p50_called(EngineBucket(Layer::kEvalReverse)),
       "us"},
      {"state.assignments_per_op", per_op("oocq_eval_assignments"), "1/op"},
      {"persist.log_us", p50_called(EngineBucket(Layer::kLog)), "us"},
      {"persist.records_per_fsync",
       ratio(delta("oocq_persist_wal_appends"), delta("oocq_persist_fsyncs")),
       "ratio"},
      {"persist.wal_bytes_per_user_byte",
       ratio(delta("oocq_persist_wal_bytes"), static_cast<double>(user_bytes)),
       "ratio"},
      {"persist.recovery_s", Median(recovery_s), "s"},
      {"trace.untraced_p50_us", untraced_p50, "us"},
      {"trace.traced_p50_us", traced_p50, "us"},
      {"trace.layer_sum_us", layer_sum_us, "us"},
      {"trace.residual_us", untraced_p50 - layer_sum_us, "us"},
      {"trace.overhead_us", traced_p50 - untraced_p50, "us"},
  };

  // Where the time goes: each bucket's share of all traced wire time,
  // overall and per request population (the dominant-layer check).
  std::map<std::string, std::vector<double>> shares;
  std::map<std::string, double> population_wire;
  for (size_t i = 0; i < count; ++i) {
    for (const std::string& population :
         {std::string("all"), workload.stream[i].population}) {
      std::vector<double>& row = shares[population];
      row.resize(kBuckets, 0.0);
      for (int bucket = 0; bucket < kBuckets; ++bucket) {
        row[bucket] += static_cast<double>(self[bucket][i]);
      }
      population_wire[population] += static_cast<double>(wire_ns[i]);
    }
  }
  auto bucket_name = [](int bucket) -> std::string {
    if (bucket == kTransport) return "server.transport";
    if (bucket == kProtocol) return "server.protocol";
    if (bucket == kService) return "server.service";
    return LayerName(static_cast<Layer>(bucket - kEngineBase));
  };
  std::string share_text = "{";
  for (const auto& [population, row] : shares) {
    int top = 0;
    std::string cells;
    for (int bucket = 0; bucket < kBuckets; ++bucket) {
      if (row[bucket] > row[top]) top = bucket;
      if (row[bucket] == 0) continue;
      cells += (cells.empty() ? "\"" : ", \"") + bucket_name(bucket) +
               "\": " + Num(row[bucket] / population_wire[population]);
    }
    share_text += std::string(share_text.size() > 1 ? ", " : "") + "\"" +
                  population + "\": {\"dominant\": \"" + bucket_name(top) +
                  "\", \"shares\": {" + cells + "}}";
  }
  share_text += "}";

  std::error_code ec;
  const std::string trace_dir = args.work_dir + "/../traces";
  std::filesystem::create_directories(trace_dir, ec);
  const std::string trace_path = trace_dir + "/" + workload.name + "-seed" +
                                 std::to_string(args.seed) + ".tsv";
  const bool written = spans.WriteTsv(trace_path);
  std::printf(
      "{\"run_record\": {%s, \"traced_ops\": %zu, \"attempted\": %zu, "
      "\"failed\": %llu, \"spans\": %zu, \"span_file\": \"%s\", "
      "\"cpu_s\": %s, \"steal_share\": %s, \"layer_shares\": %s}}\n",
      RecordHead(args, inputs).c_str(), count, count * 5,
      static_cast<unsigned long long>(failed), spans.spans().size(),
      written ? trace_path.c_str() : "", Num(cpu_s).c_str(), Num(steal).c_str(),
      share_text.c_str());
  PrintResult(failed == 0, count * 5, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  using namespace wirebench;
  const Args args = ParseArgs(argc, argv);
  const size_t stream_ops = StreamOps(args.workload, args.seconds);
  Inputs inputs = Prepare(args, stream_ops);
  g_cpus = AllowedCpus();
  // The traced run stays on the last allowed CPU: its figures are
  // compared level against level, request by request.
  if (args.trace == 1 && !g_cpus.empty()) MoveProcessTo(g_cpus.back());
  const int rc = args.trace == 1 ? RunTraced(args, inputs)
                                 : RunEndToEnd(args, inputs);
  std::error_code ec;
  std::filesystem::remove_all(inputs.run_dir, ec);
  return rc;
}
