// serve_open: the shipped storesched_serve as a child process on a unix
// socket (fixed workers, no --cache, a shared-memory instance store
// attached), driven by one load-generating thread on two connections.
//
// Phases, in order:
//   set-up     store create + publish, spawn, wait for the readiness line;
//              repeated kSetupRepeats times, the median is setup_s
//   warm-up    a short open loop (router EWMAs, page faults); checked, not
//              timed
//   open loop  requests sent on a fixed schedule well below capacity;
//              latency runs from each request's *scheduled* send time to
//              its response, so a stall also delays the requests behind it;
//              p50/p99 come from the run's calmer slices (clean_latency)
//   drain      statsz, then SIGTERM; the child's rusage gives CPU and RSS
//   capacity   a fresh server under a pipelined closed loop; its completion
//              rate is records_per_s (never taken from the open loop, whose
//              rate only echoes the offered one)
//
// The traffic mix cycles explicit graham:lpt requests with inline
// instances, routed requests with inline instances under a generous SLO
// (so the router's top rung answers), and routed {"ref":N} requests into
// the store. Every response is checked against the answering spec's
// in-process result once the clock has stopped.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace storesched;

namespace {

constexpr int kServerWorkers = 2;  // + event loop + load generator = 4 cores
constexpr int kConnections = 2;
constexpr double kRatePerS = 850;  // about a third of closed-loop capacity
constexpr int kSloMs = 1000;
constexpr int kSetupRepeats = 11;
constexpr std::size_t kCapacityWindow = 32;  // pipelined per connection
constexpr double kCapacitySlice = 0.1;  // seconds
// Request sizes step through kSizeSteps sizes per kind and kinds alternate,
// so every run of kCycle consecutive requests carries the same mix.
constexpr std::size_t kSizeSteps = 24;
constexpr std::size_t kCycle = 3 * kSizeSteps;  // one open-loop slice
constexpr double kRankQuantile = 0.9;  // slices are ranked by this latency
constexpr double kCleanShare = 0.5;    // share of slices kept
constexpr const char* kExplicitSpec = "graham:lpt";
constexpr int kDrainTimeoutS = 10;  // SIGTERM to exit, before SIGKILL

// For the signal handler: the live server child and socket path.
volatile sig_atomic_t g_child_pid = -1;
char g_socket_path[256] = {0};

void on_fatal_signal(int sig) {
  if (g_child_pid > 0) kill(g_child_pid, SIGKILL);
  if (g_socket_path[0] != '\0') unlink(g_socket_path);
  _exit(128 + sig);
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// One storesched_serve child. Its stdout and stderr go to a pipe we read
/// for the readiness and drain lines. The child dies with the harness.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, const std::vector<std::string>& args) {
    // Built before fork(): the child may only make async-signal-safe calls.
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw_errno("pipe");
    const pid_t pid = fork();
    if (pid < 0) {
      const int err = errno;
      close(fds[0]);
      close(fds[1]);
      errno = err;
      throw_errno("fork");
    }
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], 1);
      dup2(fds[1], 2);
      execv(bin.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    pid_ = pid;
    out_fd_ = fds[0];
    g_child_pid = pid;
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      g_child_pid = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the readiness line appears (or the child dies).
  void wait_ready(double timeout_s) {
    const auto deadline = Clock::now() + to_duration(timeout_s);
    while (output_.find("listening on") == std::string::npos) {
      const double left = seconds_between(Clock::now(), deadline);
      if (left <= 0) throw std::runtime_error("server not ready in time: " + output_);
      pollfd p{out_fd_, POLLIN, 0};
      poll(&p, 1, static_cast<int>(left * 1000) + 1);
      if (!read_some()) {
        throw std::runtime_error("server exited before readiness: " + output_);
      }
    }
  }

  /// SIGTERM (graceful drain), then reaps the child. Returns its rusage.
  rusage stop() {
    kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(kDrainTimeoutS);
    for (;;) {
      const double left = seconds_between(Clock::now(), deadline);
      pollfd p{out_fd_, POLLIN, 0};
      if (left <= 0 || poll(&p, 1, static_cast<int>(left * 1000) + 1) == 0) {
        throw std::runtime_error("server did not drain within " +
                                 std::to_string(kDrainTimeoutS) + " s: " + output_);
      }
      if (!read_some()) break;
    }
    rusage usage{};
    int status = 0;
    if (wait4(pid_, &status, 0, &usage) < 0) throw_errno("wait4");
    pid_ = -1;
    g_child_pid = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("server did not drain cleanly: " + output_);
    }
    return usage;
  }

  const std::string& output() const { return output_; }

 private:
  /// Reads what is available; false on EOF.
  bool read_some() {
    char buf[4096];
    const ssize_t got = read(out_fd_, buf, sizeof buf);
    if (got > 0) output_.append(buf, static_cast<std::size_t>(got));
    return got > 0 || (got < 0 && errno == EINTR);
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string output_;
};

int connect_unix(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    throw_errno("connect " + path);
  }
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// What the generator sends: request kind, pool entry, and line suffix.
struct Pools {
  /// Per kind: 0 explicit inline, 1 routed inline, 2 routed by reference
  /// (pool[2] is published in the store).
  std::vector<Instance> pool[3];
  std::string ref_container;
  std::vector<std::string> suffix[3];  ///< per kind, per pool entry

  std::size_t kind_of(std::uint64_t seq) const { return seq % 3; }
  std::size_t index_of(std::uint64_t seq) const {
    return (seq / 3) % pool[0].size();
  }
  std::string line(std::uint64_t seq) const {
    return "{\"id\":\"" + std::to_string(seq) + suffix[kind_of(seq)][index_of(seq)];
  }
  const Instance& instance(std::uint64_t seq) const {
    return pool[kind_of(seq)][index_of(seq)];
  }
};

/// Explicit requests are small (n 16-128); routed ones (n 1024-4096) give
/// the router's top rung enough work that a request's latency is mostly
/// solving, not the wake-ups around it. Entry i has the i % kSizeSteps-th
/// size and machine count of its ladder, so the mix repeats every kCycle
/// requests.
Pools make_pools(Rng& rng, bool smoke) {
  Pools pools;
  const std::size_t size = smoke ? kSizeSteps : 10 * kSizeSteps;
  const auto small = size_ladder(16, 128, kSizeSteps);
  const auto large = size_ladder(smoke ? 64 : 1024, smoke ? 256 : 4096, kSizeSteps);
  for (std::size_t i = 0; i < size; ++i) {
    const std::size_t step = i % kSizeSteps;
    const int m = 2 + static_cast<int>(step % 7);
    pools.pool[0].push_back(random_instance(small[step], m, rng));
    pools.pool[1].push_back(random_instance(large[step], m, rng));
    pools.pool[2].push_back(random_instance(large[(step + 7) % kSizeSteps], m, rng));
  }
  pools.ref_container = wire::encode_instances(pools.pool[2]);
  const std::string slo = ",\"slo_ms\":" + std::to_string(kSloMs);
  for (std::size_t i = 0; i < size; ++i) {
    pools.suffix[0].push_back("\",\"spec\":\"" + std::string(kExplicitSpec) +
                              "\",\"instance\":" + instance_to_jsonl(pools.pool[0][i]) +
                              "}\n");
    pools.suffix[1].push_back("\"" + slo + ",\"instance\":" +
                              instance_to_jsonl(pools.pool[1][i]) + "}\n");
    pools.suffix[2].push_back("\"" + slo + ",\"ref\":" + std::to_string(i) + "}\n");
  }
  return pools;
}

struct Answer {
  bool received = false;
  bool ok = false;
  bool feasible = false;
  bool degraded = false;  ///< admission other than "ok"
  ObjectivePoint objectives;
  std::string spec;
  double latency_ms = 0;
  double queue_ms = 0;
  double solve_ms = 0;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
};

/// The client side: connections, the per-request ledger, and the loops.
class LoadGen {
 public:
  LoadGen(const Pools& pools, const std::string& socket_path) : pools_(pools) {
    for (int c = 0; c < kConnections; ++c) {
      conns_.push_back(Conn{connect_unix(socket_path), {}, 0, {}});
    }
  }
  ~LoadGen() {
    for (Conn& c : conns_) close(c.fd);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  struct Window {
    std::uint64_t first = 0, last = 0;  ///< request seqs [first, last)
    std::vector<double> lag_ms;
    std::vector<double> backlog;  ///< outstanding requests, sampled
  };

  /// Open loop at kRatePerS for `seconds`, then waits for every answer.
  Window open_loop(double seconds, Tracer* tracer) {
    Window w;
    w.first = next_seq_;
    // Grown up front: a reallocation inside the loop stalls the generator.
    const auto expected = static_cast<std::size_t>(seconds * kRatePerS) + 1;
    scheduled_.reserve(scheduled_.size() + expected);
    answers_.reserve(answers_.size() + expected);
    w.lag_ms.reserve(expected);
    const auto start = Clock::now();
    const auto period = std::chrono::duration<double>(1.0 / kRatePerS);
    const auto end = start + to_duration(seconds);
    auto next_sample = start;
    std::uint64_t i = 0;
    for (;;) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
      if (due >= end) break;
      auto now = Clock::now();
      if (now < due) {
        // Poll without sleeping: a sleeping generator would add its own
        // wake-up (tens of microseconds on a VM, and varying with the host)
        // to every latency it timestamps.
        read_available(now, tracer);
        continue;
      }
      send(due, static_cast<std::size_t>(seq_conn(i)));
      w.lag_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - due).count());
      ++i;
      if (now >= next_sample) {
        w.backlog.push_back(static_cast<double>(outstanding()));
        next_sample = now + std::chrono::milliseconds(10);
      }
    }
    w.last = next_seq_;
    drain(tracer);
    return w;
  }

  /// Pipelined closed loop, kCapacityWindow requests per connection.
  /// After `warmup` seconds, counts answers per time slice; returns the
  /// mean of the best fifth of the per-slice rates: what the server
  /// sustains in the stretches other guests on the host leave it alone.
  double closed_loop(double seconds, double warmup) {
    const auto start = Clock::now();
    const auto measure_from = start + to_duration(warmup);
    const auto end = start + to_duration(seconds);
    std::vector<std::size_t> in_flight(conns_.size(), 0);
    const auto count = std::max<std::size_t>(
        4, static_cast<std::size_t>((seconds - warmup) / kCapacitySlice));
    std::vector<double> answered(count, 0.0);
    const auto top_up = [&] {
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        while (in_flight[c] < kCapacityWindow) {
          send(Clock::now(), c);
          ++in_flight[c];
        }
      }
    };
    top_up();
    for (auto now = start; now < end; now = Clock::now()) {
      std::vector<std::size_t> got = read_available(now + std::chrono::milliseconds(50), nullptr);
      now = Clock::now();
      for (std::size_t c = 0; c < got.size(); ++c) {
        in_flight[c] -= got[c];
        if (now >= measure_from) {
          answered[slice_of(measure_from, seconds - warmup, count, now)] +=
              static_cast<double>(got[c]);
        }
      }
      top_up();
    }
    drain(nullptr);
    std::sort(answered.begin(), answered.end(), std::greater<>());
    answered.resize((count + 4) / 5);
    const double mean = std::accumulate(answered.begin(), answered.end(), 0.0) /
                        static_cast<double>(answered.size());
    return mean / (seconds - warmup) * static_cast<double>(count);
  }

  /// One statsz round trip (after everything else is answered).
  std::string statsz() {
    Conn& c = conns_[0];
    c.out += "{\"id\":\"statsz\",\"statsz\":true}\n";
    statsz_.clear();
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (statsz_.empty() && Clock::now() < deadline) {
      read_available(Clock::now() + std::chrono::milliseconds(50), nullptr);
    }
    if (statsz_.empty()) throw std::runtime_error("no statsz answer");
    return statsz_;
  }

  std::uint64_t outstanding() const { return next_seq_ - answered_; }
  const std::vector<Answer>& answers() const { return answers_; }
  std::uint64_t sent() const { return next_seq_; }

 private:
  static std::uint64_t seq_conn(std::uint64_t i) { return i % kConnections; }

  void send(Clock::time_point scheduled, std::size_t conn) {
    const std::uint64_t seq = next_seq_++;
    scheduled_.push_back(scheduled);
    answers_.emplace_back();
    Conn& c = conns_[conn];
    c.out += pools_.line(seq);
    flush(c);
  }

  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t put = write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
      if (put < 0) {
        if (errno == EAGAIN || errno == EINTR) return;
        throw_errno("write");
      }
      c.out_off += static_cast<std::size_t>(put);
    }
    c.out.clear();
    c.out_off = 0;
  }

  /// Reads and records every available answer; waits at most until
  /// `until`. Returns answers per connection.
  std::vector<std::size_t> read_available(Clock::time_point until, Tracer* tracer) {
    std::vector<std::size_t> got(conns_.size(), 0);
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      fds.push_back({c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
    }
    const auto sleep_for = until - Clock::now();
    timespec ts{0, 0};
    if (sleep_for > Clock::duration::zero()) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(sleep_for).count();
      ts.tv_sec = static_cast<time_t>(ns / 1000000000);
      ts.tv_nsec = static_cast<long>(ns % 1000000000);
    }
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) throw_errno("ppoll");
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      Conn& c = conns_[k];
      if (fds[k].revents & POLLOUT) flush(c);
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[65536];
      for (;;) {
        const ssize_t n = read(c.fd, buf, sizeof buf);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) throw std::runtime_error("server closed the connection");
        if (errno == EAGAIN || errno == EINTR) break;
        throw_errno("read");
      }
      const auto now = Clock::now();
      std::size_t pos = 0;
      for (;;) {
        const std::size_t nl = c.in.find('\n', pos);
        if (nl == std::string::npos) break;
        if (on_line(std::string_view(c.in).substr(pos, nl - pos), now, tracer)) ++got[k];
        pos = nl + 1;
      }
      c.in.erase(0, pos);
    }
    return got;
  }

  /// Records one answer line. Returns true for a request answer.
  bool on_line(std::string_view line, Clock::time_point now, Tracer* tracer) {
    const auto id = json_field(line, "id");
    if (!id) throw std::runtime_error("answer without id: " + std::string(line));
    if (*id == "statsz") {
      statsz_ = std::string(line);
      return false;
    }
    const std::uint64_t seq = std::stoull(std::string(*id));
    if (seq >= answers_.size() || answers_[seq].received) {
      throw std::runtime_error("unexpected answer: " + std::string(line));
    }
    Answer& a = answers_[seq];
    a.received = true;
    a.ok = json_field(line, "ok") == std::optional<std::string_view>("true");
    a.feasible = json_field(line, "feasible") == std::optional<std::string_view>("true");
    a.degraded = json_field(line, "admission") != std::optional<std::string_view>("ok");
    if (auto spec = json_field(line, "spec")) a.spec = std::string(*spec);
    a.objectives.cmax = static_cast<Time>(json_number(json_field(line, "cmax")));
    a.objectives.mmax = static_cast<Mem>(json_number(json_field(line, "mmax")));
    a.queue_ms = json_number(json_field(line, "queue_ms"));
    a.solve_ms = json_number(json_field(line, "solve_ms"));
    a.latency_ms = std::chrono::duration<double, std::milli>(now - scheduled_[seq]).count();
    if (tracer) {
      const auto epoch_now = tracer->now_ns();
      const auto start = epoch_now - std::chrono::duration_cast<std::chrono::nanoseconds>(now - scheduled_[seq]).count();
      tracer->record(SpanName::kRequest, 0, seq, start, epoch_now);
    }
    ++answered_;
    return true;
  }

  /// Waits (bounded) until every sent request is answered.
  void drain(Tracer* tracer) {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (outstanding() > 0 && Clock::now() < deadline) {
      read_available(Clock::now() + std::chrono::milliseconds(20), tracer);
    }
  }

  const Pools& pools_;
  std::vector<Conn> conns_;
  std::vector<Clock::time_point> scheduled_;
  std::vector<Answer> answers_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t answered_ = 0;
  std::string statsz_;
};

/// Owns the run's store, socket and server; tears all three down on every
/// exit path (the signal handler covers the server and socket, and
/// perfbench/run.py sweeps store segments after any exit).
class ServeRig {
 public:
  ServeRig(const Args& args, const Pools& pools)
      : args_(args), pools_(pools),
        socket_path_(args.run_dir + "/serve-" + std::to_string(getpid()) + ".sock"),
        store_name_(args.store_name) {
    if (socket_path_.size() >= sizeof(sockaddr_un::sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_path_);
    }
    std::strncpy(g_socket_path, socket_path_.c_str(), sizeof g_socket_path - 1);
    signal(SIGTERM, on_fatal_signal);
    signal(SIGINT, on_fatal_signal);
    signal(SIGPIPE, SIG_IGN);
  }
  ~ServeRig() {
    server_.reset();
    store_.reset();
    storage::ShmStore::unlink(store_name_);
    unlink(socket_path_.c_str());
    g_socket_path[0] = '\0';
  }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  /// Store create + publish, spawn, readiness. Returns the seconds taken.
  double start() {
    const auto t0 = Clock::now();
    store_.emplace(storage::ShmStore::create(store_name_));
    store_->publish(pools_.ref_container);
    spawn();
    return seconds_between(t0, Clock::now());
  }

  /// A fresh server on the same store (not timed as set-up).
  void respawn() { spawn(); }

  rusage stop() {
    const rusage usage = server_->stop();
    last_output_ = server_->output();
    server_.reset();
    return usage;
  }

  void stop_all() {
    stop();
    store_.reset();
    storage::ShmStore::unlink(store_name_);
  }

  const std::string& socket_path() const { return socket_path_; }
  const std::string& last_output() const { return last_output_; }

 private:
  void spawn() {
    unlink(socket_path_.c_str());
    server_ = std::make_unique<ServerProcess>(
        args_.serve_bin,
        std::vector<std::string>{"--unix=" + socket_path_,
                                 "--threads=" + std::to_string(kServerWorkers),
                                 "--store=" + store_name_});
    server_->wait_ready(30);
  }

  const Args& args_;
  const Pools& pools_;
  std::string socket_path_;
  std::string store_name_;
  std::optional<storage::ShmStore> store_;
  std::unique_ptr<ServerProcess> server_;
  std::string last_output_;
};

/// A request's latency; a missing or failed answer counts as +inf.
double latency_of(const Answer& a) {
  return a.received && a.ok ? a.latency_ms : std::numeric_limits<double>::infinity();
}

/// Latencies of the requests [first, last).
std::vector<double> latencies(const std::vector<Answer>& answers,
                              std::uint64_t first, std::uint64_t last) {
  std::vector<double> out;
  for (std::uint64_t s = first; s < last; ++s) out.push_back(latency_of(answers[s]));
  return out;
}

/// Latency percentiles of an open-loop window, pooled over the requests of
/// its calmer slices. A slice is kCycle consecutive requests, so every slice
/// carries the same request mix and slices differ only in what happened
/// while they ran; the kCleanShare of them with the lowest kRankQuantile
/// latency are kept. On a shared 4-vCPU VM the served path stalls for
/// milliseconds a few times a second; /proc/stat steal time does not account
/// for these stalls and the spinning generator does not see them, so no
/// signal from outside the program marks them. Every request queued behind
/// a stall is late, which moves its slice's p90. (A periodic stall of the
/// program's own would be dropped the same way; the whole-run figures go to
/// stderr for that.) A regression that slows a few percent of requests does
/// not move a slice's p90, so the kept slices hold its slow requests at
/// their full rate and the pooled p99 moves with it; one that slows more
/// moves every slice's p90 and every kept request. Pooling keeps p99 a true
/// percentile: ~50 samples lie beyond it. The generator's lag is pooled
/// over the same requests: it is the health check of this measurement.
struct CleanLatency {
  double p50_ms = 0;
  double p99_ms = 0;
  double lag_p99_ms = 0;
  std::size_t samples = 0;
};

CleanLatency clean_latency(const std::vector<Answer>& answers,
                           const LoadGen::Window& w) {
  // Slice k holds the requests [k * kCycle, (k + 1) * kCycle); only the
  // window's whole slices count.
  std::vector<std::pair<double, std::uint64_t>> ranked;
  for (std::uint64_t k = (w.first + kCycle - 1) / kCycle; (k + 1) * kCycle <= w.last; ++k) {
    std::vector<double> latency;
    for (std::uint64_t seq = k * kCycle; seq < (k + 1) * kCycle; ++seq) {
      latency.push_back(latency_of(answers[seq]));
    }
    ranked.emplace_back(quantile(latency, kRankQuantile), k);
  }
  if (ranked.empty()) throw std::runtime_error("open loop too short for one slice");
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(std::max<std::size_t>(
      1, static_cast<std::size_t>(kCleanShare * static_cast<double>(ranked.size()))));
  std::vector<double> lat, lags;
  for (const auto& [rank, k] : ranked) {
    for (std::uint64_t seq = k * kCycle; seq < (k + 1) * kCycle; ++seq) {
      lat.push_back(latency_of(answers[seq]));
      lags.push_back(w.lag_ms[seq - w.first]);
    }
  }
  return {quantile(lat, 0.50), quantile(lat, 0.99), quantile(lags, 0.99), lat.size()};
}

/// Open-loop hygiene: below capacity the backlog stays flat. Over capacity
/// it grows for as long as the loop runs -- linearly, so the last quarter's
/// median backlog is over twice the second quarter's; a passing stall
/// (another guest on the host) moves neither median much.
bool backlog_grew(const std::vector<double>& backlog) {
  const std::size_t n = backlog.size();
  if (n < 8) return false;
  const auto median_of = [&](std::size_t from, std::size_t to) {
    return median(std::vector<double>(backlog.begin() + static_cast<std::ptrdiff_t>(from),
                                      backlog.begin() + static_cast<std::ptrdiff_t>(to)));
  };
  return median_of(3 * n / 4, n) > 1.5 * median_of(n / 4, n / 2) + 256;
}

/// Checks every answer against the answering spec's in-process result.
/// Returns the number of failed records.
std::uint64_t check_answers(const Pools& pools, const std::vector<Answer>& answers,
                            std::vector<std::string>& notes) {
  std::map<std::string, std::unique_ptr<Solver>> solvers;
  std::map<std::pair<std::string, const Instance*>, ObjectivePoint> reference;
  std::uint64_t failed = 0;
  for (std::uint64_t seq = 0; seq < answers.size(); ++seq) {
    const Answer& a = answers[seq];
    if (!a.received || !a.ok || !a.feasible) {
      ++failed;
      continue;
    }
    const Instance* inst = &pools.instance(seq);
    const auto key = std::make_pair(a.spec, inst);
    auto it = reference.find(key);
    if (it == reference.end()) {
      auto& solver = solvers[a.spec];
      if (!solver) solver = make_solver(a.spec);
      it = reference.emplace(key, solver->solve(*inst).objectives).first;
    }
    if (it->second != a.objectives) ++failed;
  }
  if (failed > 0) notes.push_back("answers failing their check: " + std::to_string(failed));
  return failed;
}

}  // namespace

Outcome run_serve(const Args& args) {
  if (args.serve_bin.empty()) throw std::invalid_argument("serve_open needs --serve-bin");
  if (args.store_name.empty()) throw std::invalid_argument("serve_open needs --store");
  Rng rng(args.seed);
  const Pools pools = make_pools(rng, args.smoke);
  Outcome out;
  ServeRig rig(args, pools);

  std::vector<double> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup.push_back(rig.start());
    if (r + 1 < kSetupRepeats) rig.stop_all();
  }

  // Time split: the open loop gets most of the run, capacity the rest.
  const double warmup_s = std::min(0.5, args.seconds * 0.1);
  const double open_s = args.trace ? args.seconds - warmup_s : args.seconds * 0.7 - warmup_s;
  const double capacity_s = args.seconds - open_s - warmup_s;

  std::optional<LoadGen> gen(std::in_place, pools, rig.socket_path());
  gen->open_loop(warmup_s, nullptr);

  LoadGen::Window plain, traced;
  Tracer tracer(1u << 18);
  if (!args.trace) {
    plain = gen->open_loop(open_s, nullptr);
  } else {
    plain = gen->open_loop(open_s / 2, nullptr);
    traced = gen->open_loop(open_s / 2, &tracer);
  }
  const std::string statsz = gen->statsz();
  const std::vector<Answer> answers = gen->answers();
  const std::uint64_t sent = gen->sent();
  gen.reset();
  const rusage usage = rig.stop();

  // Hygiene: every request answered (both sides agree), no backlog growth.
  const std::string& drained = rig.last_output();
  // statsz is answered but not counted as a request.
  const std::string want = "requests=" + std::to_string(sent) +
                           " responses=" + std::to_string(sent + 1);
  if (drained.find(want) == std::string::npos) {
    out.correct = false;
    out.notes.push_back("server drain line does not show " + want + ": " + drained);
  }
  if (backlog_grew(plain.backlog) || (args.trace && backlog_grew(traced.backlog))) {
    out.correct = false;
    out.notes.push_back("over capacity: the open-loop backlog grew at " +
                        std::to_string(kRatePerS) + " requests/s");
  }

  double capacity = 0;
  std::uint64_t capacity_failed = 0, capacity_sent = 0;
  if (!args.trace) {
    rig.respawn();
    LoadGen cap(pools, rig.socket_path());
    capacity = cap.closed_loop(capacity_s, capacity_s * 0.2);
    capacity_sent = cap.sent();
    capacity_failed = check_answers(pools, cap.answers(), out.notes);
    rig.stop();
  }

  out.attempted = sent + capacity_sent;
  out.failed = check_answers(pools, answers, out.notes) + capacity_failed;
  if (out.failed > 0) out.correct = false;

  const std::vector<double> lat_plain = latencies(answers, plain.first, plain.last);
  auto& m = out.metrics;
  const double served = static_cast<double>(sent);
  if (!args.trace) {
    m["setup_s"] = {median(setup), "s"};
    m["records_per_s"] = {capacity, "1/s"};
    m["cpu_us_per_record"] = {cpu_seconds(usage) * 1e6 / served, "us"};
    m["peak_rss_mb"] = {static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"};
    const CleanLatency clean = clean_latency(answers, plain);
    m["latency_p50_ms"] = {clean.p50_ms, "ms"};
    m["latency_p99_ms"] = {clean.p99_ms, "ms"};
    out.notes.push_back(
        "open loop " + std::to_string(kRatePerS) + "/s: " +
        std::to_string(lat_plain.size()) + " requests; p50/p99 over the " +
        std::to_string(clean.samples) + " requests of the calmer slices (p99 has " +
        std::to_string(clean.samples / 100) +
        " beyond), loadgen lag p99 there " + std::to_string(clean.lag_p99_ms) +
        " ms; whole-run p50/p99 " + std::to_string(quantile(lat_plain, 0.5)) +
        "/" + std::to_string(quantile(lat_plain, 0.99)) + " ms, loadgen lag p99 " +
        std::to_string(quantile(plain.lag_ms, 0.99)) + " ms; capacity " +
        std::to_string(capacity) + "/s");
  } else {
    std::vector<double> queue, solve, frontend;
    double degraded = 0;
    for (std::uint64_t s = traced.first; s < traced.last; ++s) {
      const Answer& a = answers[s];
      queue.push_back(a.queue_ms);
      solve.push_back(a.solve_ms);
      frontend.push_back(a.latency_ms - a.queue_ms - a.solve_ms);
      if (a.degraded) degraded += 1;
    }
    m["serve.queue_ms_p50"] = {quantile(queue, 0.5), "ms"};
    m["serve.solve_ms_p50"] = {quantile(solve, 0.5), "ms"};
    m["serve.frontend_ms_p50"] = {quantile(frontend, 0.5), "ms"};
    m["serve.frontend_ms_p99"] = {quantile(frontend, 0.99), "ms"};
    m["serve.degraded_frac"] = {degraded / static_cast<double>(queue.size()), "ratio"};
    m["serve.queue_peak"] = {json_number(json_field(statsz, "queue_peak")), "count"};
    const CleanLatency clean = clean_latency(answers, traced);
    m["loadgen.lag_p99_ms"] = {clean.lag_p99_ms, "ms"};
    m["trace.overhead_frac"] = {clean.p50_ms / clean_latency(answers, plain).p50_ms - 1,
                                "ratio"};

    LayerInputs inputs;
    inputs.independent = pools.pool[0];
    inputs.independent.insert(inputs.independent.end(), pools.pool[1].begin(),
                              pools.pool[1].end());
    inputs.cache_spec = kExplicitSpec;
    for (std::uint64_t s = 0; s < 3 * pools.pool[0].size(); ++s) {
      inputs.request_lines.push_back(pools.line(s));
      inputs.request_lines.back().pop_back();  // the newline
    }
    replay_layers(inputs, m);
    const std::string path = args.run_dir + "/spans-serve_open.jsonl";
    tracer.write(path);
    out.notes.push_back("spans written to " + path);
  }
  return out;
}

}  // namespace perfbench
