// perfbench -- the storesched benchmark harness.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--smoke] [--serve-bin=PATH] [--run-dir=DIR] [--store=NAME]
//
// Workloads: bulk_jsonl, bulk_binary, repeat_cached, serve_open. The last
// line of stdout is one JSON object {"correct", "attempted", "failed",
// "metrics"}; --trace=0 reports the end-to-end metrics, --trace=1 the
// per-layer ones the workload has a live source for (perfbench/run.py
// reports the rest as 0). Exits 1 when any output fails its check.
// perfbench/run.py builds this binary and is the intended entry point.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "harness.hpp"

namespace perfbench {

using namespace storesched;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return cpu_seconds(usage);
}

double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::optional<std::string_view> json_field(std::string_view line,
                                           std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  if (begin < line.size() && line[begin] == '"') {
    const std::size_t end = line.find('"', begin + 1);
    return line.substr(begin + 1, end - begin - 1);
  }
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

double json_number(std::optional<std::string_view> field) {
  return field ? std::stod(std::string(*field)) : 0.0;
}

std::size_t slice_of(Clock::time_point start, double seconds, std::size_t count,
                     Clock::time_point t) {
  if (!(seconds > 0)) return 0;
  const double at = seconds_between(start, t) / seconds * static_cast<double>(count);
  if (at <= 0) return 0;
  return std::min(count - 1, static_cast<std::size_t>(at));
}

std::vector<std::size_t> size_ladder(std::size_t lo, std::size_t hi,
                                     std::size_t count) {
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < count; ++i) {
    const double t = count == 1 ? 0.0
                                : static_cast<double>(i) /
                                      static_cast<double>(count - 1);
    sizes.push_back(static_cast<std::size_t>(std::lround(
        static_cast<double>(lo) *
        std::pow(static_cast<double>(hi) / static_cast<double>(lo), t))));
  }
  return sizes;
}

Instance random_instance(std::size_t n, int m, Rng& rng) {
  GenParams params;
  params.n = n;
  params.m = m;
  return generate_uniform(params, rng);
}

namespace {

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const std::string& flag) -> std::optional<std::string> {
      if (arg.rfind(flag + "=", 0) == 0) return arg.substr(flag.size() + 1);
      return std::nullopt;
    };
    if (auto v = value("--workload")) {
      args.workload = *v;
    } else if (auto v = value("--seed")) {
      args.seed = std::stoull(*v);
    } else if (auto v = value("--seconds")) {
      args.seconds = std::stod(*v);
    } else if (auto v = value("--trace")) {
      args.trace = *v == "1";
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (auto v = value("--serve-bin")) {
      args.serve_bin = *v;
    } else if (auto v = value("--run-dir")) {
      args.run_dir = *v;
    } else if (auto v = value("--store")) {
      args.store_name = *v;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("metric is not finite");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    const Outcome out =
        args.workload == "serve_open" ? run_serve(args) : run_bulk(args);
    for (const std::string& note : out.notes) {
      std::cerr << "[perfbench] " << args.workload << ": " << note << "\n";
    }
    std::string line = "{\"correct\":" + std::string(out.correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(out.attempted) +
                       ",\"failed\":" + std::to_string(out.failed) +
                       ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, metric] : out.metrics) {
      if (!first) line += ',';
      first = false;
      line += "\"" + name + "\":{\"value\":" + format_number(metric.value) +
              ",\"unit\":\"" + metric.unit + "\"}";
    }
    line += "}}";
    std::cout << line << std::endl;
    return out.correct ? 0 : 1;
  } catch (const std::exception& err) {
    std::cerr << "perfbench: " << err.what() << "\n";
    return 2;
  }
}
