// Shared declarations of the storesched benchmark harness.
//
// The harness drives the library's public API from outside: solve_stream
// with its sources, sinks and cache for the bulk workloads, and the shipped
// storesched_serve binary for serve_open. Inputs come only from --seed.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/audit.hpp"
#include "storesched.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Linear-interpolated quantile of an unsorted sample (copies it).
double quantile(std::vector<double> values, double q);

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// User+system CPU seconds of an rusage.
inline double cpu_seconds(const rusage& usage) {
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// User+system CPU seconds of this process so far (all threads).
double process_cpu_seconds();

/// Peak resident set of this process, in MiB.
double process_peak_rss_mb();

/// The value of a top-level `"key":` in a flat JSON line -- the body of a
/// string, the literal of a number or boolean -- or nullopt.
std::optional<std::string_view> json_field(std::string_view line,
                                           std::string_view key);

/// A json_field() holding a number; 0 when absent.
double json_number(std::optional<std::string_view> field);

/// Which of `count` equal time slices of [start, start + seconds] the
/// instant `t` falls in (clamped to the first and last).
std::size_t slice_of(Clock::time_point start, double seconds, std::size_t count,
                     Clock::time_point t);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;               ///< tiny sizes, short run
  std::string serve_bin;            ///< storesched_serve to spawn
  std::string run_dir = ".";        ///< socket + span files go here
  std::string store_name;           ///< shm store name (serve_open needs it)
};

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable, printed to stderr
};

Outcome run_bulk(const Args& args);
Outcome run_serve(const Args& args);

/// A workload's own inputs, as handed to the single-thread layer replays.
struct LayerInputs {
  std::vector<storesched::Instance> independent;
  std::vector<storesched::Instance> dags;
  std::vector<std::string> request_lines;  ///< empty = built from instances
  std::string cache_spec;                  ///< spec folded into cache keys
};

/// Times each layer's public functions over `in`, single-threaded, and
/// adds the io.*, wire.*, solve.*, cache.* (but hit_ratio and
/// relabeled_frac), audit.us and serve.request_parse_us /
/// serve.response_us metrics to `out`.
void replay_layers(const LayerInputs& in, std::map<std::string, Metric>& out);

/// Ladder of `count` sizes spread geometrically over [lo, hi].
std::vector<std::size_t> size_ladder(std::size_t lo, std::size_t hi,
                                     std::size_t count);

/// Uniform independent instance with p, s in [1, 100].
storesched::Instance random_instance(std::size_t n, int m,
                                     storesched::Rng& rng);

}  // namespace perfbench
