// The bulk workloads: repeated jobs, each one solve_stream call over a
// chunk of pre-generated records, the way a batch user runs the CLI on a
// file. A job's clock starts before make_solver and stops when
// solve_stream returns; its outputs are checked after the clock stops.
//
//   bulk_jsonl     JSONL text -> JsonlInstanceSource -> graham:lpt ->
//                  JsonlResultSink (in memory)
//   bulk_binary    binary wire -> BinaryInstanceSource -> sbo:lpt,delta=3/2
//                  (independent) / rls:bottom,delta=3 (DAG) -> VectorSink
//   repeat_cached  binary wire -> sbo:lpt,delta=3/2 with a cold private
//                  SolveCache per job -> VectorSink
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "harness.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace storesched;

namespace {

constexpr unsigned kWorkers = 3;  // plus the idle calling thread: <= 4 cores
constexpr std::size_t kSlices = 40;  // time slices of a timed loop
constexpr const char* kSboSpec = "sbo:lpt,delta=3/2";
constexpr const char* kRlsSpec = "rls:bottom,delta=3";

/// Reads a chunk's bytes in place (no copy into the stream).
class MemBuf final : public std::streambuf {
 public:
  explicit MemBuf(const std::string& bytes) {
    char* base = const_cast<char*>(bytes.data());
    setg(base, base, base + bytes.size());
  }
};

/// bulk_binary's fixed mix: independent records go to the SBO kernel, DAG
/// records to the RLS DAG kernel, inside one stream.
class MixedSolver final : public Solver {
 public:
  MixedSolver() : sbo_(make_solver(kSboSpec)), rls_(make_solver(kRlsSpec)) {}
  std::string name() const override {
    return sbo_->name() + "|" + rls_->name();
  }
  Capabilities capabilities(int m) const override {
    return rls_->capabilities(m);
  }

 protected:
  SolveResult do_solve(const Instance& inst,
                       const SolveOptions& options) const override {
    return (inst.has_precedence() ? rls_ : sbo_)->solve(inst, options);
  }

 private:
  std::unique_ptr<Solver> sbo_;
  std::unique_ptr<Solver> rls_;
};

struct Expect {
  bool feasible = false;
  ObjectivePoint objectives;
};

struct Chunk {
  std::string bytes;            ///< JSONL text or a binary container
  std::size_t records = 0;
  std::vector<Expect> expected; ///< per record: its direct solve
  /// repeat_cached: record -> its distinct instance, and the cold-solve
  /// objectives of every copy of each distinct instance.
  std::vector<std::uint32_t> group;
  std::vector<std::vector<Expect>> group_expect;
};

struct Plan {
  std::string spec;  ///< "" = MixedSolver
  bool jsonl = false;
  bool cache = false;
  std::vector<Chunk> chunks;
  LayerInputs layer_inputs;
};

std::unique_ptr<Solver> workload_solver(const Plan& plan) {
  if (plan.spec.empty()) return std::make_unique<MixedSolver>();
  return make_solver(plan.spec);
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

/// Solves every record directly (outside any timed region) and stores
/// what the stream must deliver for it.
void set_expectations(const Plan& plan, Chunk& chunk,
                      const std::vector<Instance>& records) {
  if (!chunk.group.empty()) {
    chunk.group_expect.resize(
        *std::max_element(chunk.group.begin(), chunk.group.end()) + 1);
  }
  const auto solver = workload_solver(plan);
  chunk.records = records.size();
  for (const Instance& inst : records) {
    const SolveResult r = solver->solve(inst);
    chunk.expected.push_back({r.feasible, r.objectives});
    if (!chunk.group.empty()) {
      chunk.group_expect[chunk.group[chunk.expected.size() - 1]].push_back(
          chunk.expected.back());
    }
  }
}

void finish_chunk(Plan& plan, std::vector<Instance>& records,
                  std::vector<std::uint32_t> group = {}) {
  Chunk chunk;
  chunk.group = std::move(group);
  if (plan.jsonl) {
    for (const Instance& inst : records) {
      chunk.bytes += instance_to_jsonl(inst);
      chunk.bytes += '\n';
    }
  } else {
    chunk.bytes = wire::encode_instances(records);
  }
  set_expectations(plan, chunk, records);
  // The first chunk doubles as the layer replays' sample.
  if (plan.chunks.empty()) {
    for (Instance& inst : records) {
      (inst.has_precedence() ? plan.layer_inputs.dags
                             : plan.layer_inputs.independent)
          .push_back(std::move(inst));
    }
  }
  plan.chunks.push_back(std::move(chunk));
}

/// Every chunk holds the same ladder of sizes in a seeded order, so job
/// cost hardly depends on the seed; the seed picks task values and order.
Plan plan_bulk_jsonl(Rng& rng, bool smoke) {
  Plan plan;
  plan.spec = "graham:lpt";
  plan.jsonl = true;
  plan.layer_inputs.cache_spec = plan.spec;
  const std::size_t chunks = smoke ? 2 : 16;
  const std::size_t per_chunk = smoke ? 64 : 512;
  const auto sizes = size_ladder(4, 64, 32);
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<Instance> records;
    for (std::size_t i = 0; i < per_chunk; ++i) {
      const int m = 2 + static_cast<int>(i % 7);
      records.push_back(random_instance(sizes[i % sizes.size()], m, rng));
    }
    shuffle(records, rng);
    finish_chunk(plan, records);
  }
  return plan;
}

Plan plan_bulk_binary(Rng& rng, bool smoke) {
  Plan plan;
  plan.layer_inputs.cache_spec = kSboSpec;
  // Many chunks: job cost varies with the seeded DAG shapes, and the run's
  // figures should not.
  const std::size_t chunks = smoke ? 2 : 48;
  const std::size_t per_chunk = smoke ? 8 : 24;  // half independent, half DAG
  const auto sizes = size_ladder(128, smoke ? 256 : 2000, per_chunk / 2);
  const DagWeightParams weights{1, 100, 1, 100};
  const int ms[] = {4, 8, 16};
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<Instance> records;
    for (std::size_t i = 0; i < per_chunk / 2; ++i) {
      const int m = ms[i % 3];
      records.push_back(random_instance(sizes[i], m, rng));
      records.push_back(generate_dag_by_name(i % 2 ? "forkjoin" : "layered",
                                             sizes[i], m, weights, rng));
    }
    shuffle(records, rng);
    finish_chunk(plan, records);
  }
  return plan;
}

Plan plan_repeat_cached(Rng& rng, bool smoke) {
  Plan plan;
  plan.spec = kSboSpec;
  plan.cache = true;
  plan.layer_inputs.cache_spec = plan.spec;
  const std::size_t chunks = smoke ? 2 : 12;
  const std::size_t distinct = smoke ? 16 : 128;
  const std::size_t repeats = 16;
  const auto sizes = size_ladder(16, 64, 16);
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<Instance> copies;
    std::vector<std::uint32_t> copy_group;
    for (std::size_t d = 0; d < distinct; ++d) {
      const int m = 2 + static_cast<int>(d % 7);
      const Instance base = random_instance(sizes[d % sizes.size()], m, rng);
      for (std::size_t r = 0; r < repeats; ++r) {
        // Each copy has its tasks in another order, so the canonical key
        // has real sorting to do.
        std::vector<Task> tasks(base.tasks().begin(), base.tasks().end());
        shuffle(tasks, rng);
        copies.emplace_back(std::move(tasks), m);
        copy_group.push_back(static_cast<std::uint32_t>(d));
      }
    }
    std::vector<std::size_t> order(copies.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng);
    std::vector<Instance> records;
    std::vector<std::uint32_t> group;
    for (const std::size_t i : order) {
      records.push_back(std::move(copies[i]));
      group.push_back(copy_group[i]);
    }
    finish_chunk(plan, records, std::move(group));
  }
  return plan;
}

struct JobStats {
  double setup_s = 0;
  double wall_s = 0;  ///< set-up + stream
  double stream_s = 0;
  double cpu_s = 0;
  std::uint64_t failed = 0;
  std::uint64_t relabeled = 0;  ///< cache hits not equal to their own cold solve
  StreamStats stream;
};

bool matches(const SolveResult& r, const Expect& want) {
  return r.feasible == want.feasible && r.objectives == want.objectives;
}

/// Counts the records of a JSONL result text whose objectives differ from
/// their direct solve, or that are missing or repeated.
std::uint64_t count_jsonl_mismatches(const std::string& text,
                                     const std::vector<Expect>& expected) {
  std::vector<bool> seen(expected.size(), false);
  std::uint64_t bad = 0;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    const auto index = static_cast<std::size_t>(json_number(json_field(line, "index")));
    SolveResult got;
    got.feasible = json_field(line, "feasible") == std::optional<std::string_view>("true");
    got.objectives.cmax = static_cast<Time>(json_number(json_field(line, "cmax")));
    got.objectives.mmax = static_cast<Mem>(json_number(json_field(line, "mmax")));
    if (index >= expected.size() || seen[index] || !matches(got, expected[index])) {
      ++bad;
      continue;
    }
    seen[index] = true;
  }
  const auto missing = static_cast<std::uint64_t>(std::count(seen.begin(), seen.end(), false));
  return std::min<std::uint64_t>(expected.size(), bad + missing);
}

JobStats run_job(const Plan& plan, const Chunk& chunk, std::uint64_t seq,
                 Tracer* tracer) {
  JobStats job;
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  const std::int64_t t0_ns = tracer ? tracer->now_ns() : 0;
  const std::uint32_t span = tracer ? tracer->open(SpanName::kJob, 0, seq) : 0;

  std::unique_ptr<Solver> solver = workload_solver(plan);
  if (tracer) {
    solver = std::make_unique<TimedSolver>(std::move(solver), *tracer, span);
  }
  std::unique_ptr<storage::SolveCache> cache;
  if (plan.cache) cache = std::make_unique<storage::SolveCache>();
  std::unique_ptr<MemBuf> buf;
  std::unique_ptr<std::istream> in;
  std::unique_ptr<InstanceSource> source;
  if (plan.jsonl) {
    buf = std::make_unique<MemBuf>(chunk.bytes);
    in = std::make_unique<std::istream>(buf.get());
    source = std::make_unique<JsonlInstanceSource>(*in);
  } else {
    source = std::make_unique<storage::BinaryInstanceSource>(
        std::string_view(chunk.bytes));
  }
  std::ostringstream text;
  std::vector<SolveResult> results;
  std::unique_ptr<ResultSink> sink;
  if (plan.jsonl) {
    sink = std::make_unique<JsonlResultSink>(text);
  } else {
    results.resize(chunk.records);
    sink = std::make_unique<VectorSink>(results);
  }
  std::unique_ptr<InstanceSource> traced_source;
  std::unique_ptr<ResultSink> traced_sink;
  if (tracer) {
    traced_source = std::make_unique<TracedSource>(*source, *tracer, span);
    traced_sink = std::make_unique<TracedSink>(*sink, *tracer, span);
  }
  StreamOptions options;
  options.threads = kWorkers;
  options.cache = cache.get();

  const auto t1 = Clock::now();
  job.stream = solve_stream(*solver, traced_source ? *traced_source : *source,
                            traced_sink ? *traced_sink : *sink, {}, options);
  const auto t2 = Clock::now();
  job.cpu_s = process_cpu_seconds() - cpu0;
  if (tracer) tracer->close(span, SpanName::kJob, t0_ns, tracer->now_ns());
  job.setup_s = seconds_between(t0, t1);
  job.stream_s = seconds_between(t1, t2);
  job.wall_s = seconds_between(t0, t2);

  // Correctness, outside the clock.
  if (plan.jsonl) {
    job.failed = count_jsonl_mismatches(text.str(), chunk.expected);
  } else if (chunk.group.empty()) {
    for (std::size_t i = 0; i < chunk.records; ++i) {
      if (!matches(results[i], chunk.expected[i])) ++job.failed;
    }
  } else {
    // A cache hit on a permuted copy returns the cached copy's schedule
    // relabeled (storage/canonical.hpp), so it must equal the cold solve
    // of some copy of the same instance -- and audit clean on this record.
    const std::vector<Instance> records = wire::decode_instances(chunk.bytes);
    for (std::size_t i = 0; i < chunk.records; ++i) {
      const SolveResult& r = results[i];
      if (matches(r, chunk.expected[i])) continue;
      const auto& copies = chunk.group_expect[chunk.group[i]];
      const bool some_copy =
          std::any_of(copies.begin(), copies.end(),
                      [&](const Expect& e) { return matches(r, e); });
      if (some_copy && r.feasible &&
          audit_schedule(records[i], r.schedule, r).ok()) {
        ++job.relabeled;
      } else {
        ++job.failed;
      }
    }
  }
  job.failed = std::max<std::uint64_t>(
      job.failed, job.stream.failed + (chunk.records - job.stream.delivered));
  return job;
}

struct LoopTotals {
  /// The jobs that started in one time slice of the loop.
  struct Window {
    double wall_s = 0;
    double cpu_s = 0;
    std::uint64_t records = 0;
    std::vector<double> latency_ms;
  };
  std::vector<Window> windows;
  std::vector<double> setup_s;
  double wall_s = 0;
  double stream_s = 0;
  double cpu_s = 0;
  std::uint64_t records = 0;
  std::uint64_t failed = 0;
  std::uint64_t relabeled = 0;
  std::uint64_t jobs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t max_in_flight = 0;
};

/// The time slices a run's wall-clock figures are taken over: the best
/// fifth of the slices that ran a job, ranked by their median job latency.
/// On a shared host other guests' bursts slow whole stretches of any run,
/// and a slice's median job moves with them. A slow job here and there
/// does not move it, so a regression that slows a few percent of jobs
/// stays in the kept slices at its full rate and shows in every figure.
std::vector<const LoopTotals::Window*> clean_windows(const LoopTotals& t) {
  std::vector<std::pair<double, const LoopTotals::Window*>> ranked;
  for (const auto& w : t.windows) {
    if (w.records > 0) ranked.emplace_back(median(w.latency_ms), &w);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ranked.resize((ranked.size() + 4) / 5);
  std::vector<const LoopTotals::Window*> kept;
  for (const auto& entry : ranked) kept.push_back(entry.second);
  return kept;
}

/// Records per wall second over a run's clean slices.
double clean_rate(const LoopTotals& t) {
  double records = 0, wall = 0;
  for (const auto* w : clean_windows(t)) {
    records += static_cast<double>(w->records);
    wall += w->wall_s;
  }
  return records / wall;
}

/// Runs jobs round-robin over the chunks for `seconds` (at least one pass
/// over every chunk).
LoopTotals run_loop(const Plan& plan, double seconds, Tracer* tracer,
                    std::uint64_t first_seq) {
  LoopTotals t;
  t.windows.resize(kSlices);
  const auto start = Clock::now();
  for (std::uint64_t seq = first_seq;; ++seq) {
    const Chunk& chunk = plan.chunks[seq % plan.chunks.size()];
    auto& w = t.windows[slice_of(start, seconds, kSlices, Clock::now())];
    const JobStats job = run_job(plan, chunk, seq, tracer);
    w.wall_s += job.wall_s;
    w.cpu_s += job.cpu_s;
    w.records += chunk.records;
    w.latency_ms.push_back(job.wall_s * 1e3);
    t.setup_s.push_back(job.setup_s);
    t.wall_s += job.wall_s;
    t.stream_s += job.stream_s;
    t.cpu_s += job.cpu_s;
    t.records += chunk.records;
    t.failed += job.failed;
    t.relabeled += job.relabeled;
    t.cache_hits += job.stream.cache_hits;
    t.cache_misses += job.stream.cache_misses;
    t.max_in_flight = std::max(t.max_in_flight, job.stream.max_in_flight);
    ++t.jobs;
    if (t.jobs >= plan.chunks.size() &&
        seconds_between(start, Clock::now()) >= seconds) {
      break;
    }
  }
  return t;
}

}  // namespace

Outcome run_bulk(const Args& args) {
  Rng rng(args.seed);
  Plan plan;
  if (args.workload == "bulk_jsonl") {
    plan = plan_bulk_jsonl(rng, args.smoke);
  } else if (args.workload == "bulk_binary") {
    plan = plan_bulk_binary(rng, args.smoke);
  } else if (args.workload == "repeat_cached") {
    plan = plan_repeat_cached(rng, args.smoke);
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }

  Outcome out;
  // Warm-up: one untimed pass over every chunk (lazy set-up, page faults).
  const LoopTotals warm = run_loop(plan, 0, nullptr, 0);
  out.attempted += warm.records;
  out.failed += warm.failed;

  if (!args.trace) {
    const LoopTotals t = run_loop(plan, args.seconds, nullptr, 0);
    out.attempted += t.records;
    out.failed += t.failed;
    // Wall-clock figures over the clean slices; cpu over every slice.
    const std::vector<const LoopTotals::Window*> clean = clean_windows(t);
    std::vector<double> cpu, latency;
    for (const auto& w : t.windows) {
      if (w.records > 0) cpu.push_back(w.cpu_s * 1e6 / static_cast<double>(w.records));
    }
    for (const auto* w : clean) {
      latency.insert(latency.end(), w->latency_ms.begin(), w->latency_ms.end());
    }
    out.metrics["setup_s"] = {median(t.setup_s), "s"};
    out.metrics["records_per_s"] = {clean_rate(t), "1/s"};
    out.metrics["cpu_us_per_record"] = {median(cpu), "us"};
    out.metrics["peak_rss_mb"] = {process_peak_rss_mb(), "MB"};
    out.metrics["latency_p50_ms"] = {quantile(latency, 0.50), "ms"};
    out.metrics["latency_p99_ms"] = {quantile(latency, 0.99), "ms"};
    out.notes.push_back(
        "jobs=" + std::to_string(t.jobs) + " records=" +
        std::to_string(t.records) + " records/job=" +
        std::to_string(t.records / t.jobs) + "; latency over the " +
        std::to_string(latency.size()) + " jobs of the " +
        std::to_string(clean.size()) + " clean slices of " +
        std::to_string(kSlices) + "; whole-run " +
        std::to_string(static_cast<double>(t.records) / t.wall_s) +
        " records/s; set-up over " + std::to_string(t.setup_s.size()) + " jobs");
    if (plan.cache) {
      out.notes.push_back(
          "cache hits equal to another copy's cold solve but not their own: " +
          std::to_string(t.relabeled) + " of " + std::to_string(t.records));
    }
  } else {
    // Half untraced, half traced: the difference is the tracing overhead.
    const LoopTotals plain = run_loop(plan, args.seconds / 2, nullptr, 0);
    Tracer tracer(1u << 18);
    const LoopTotals traced =
        run_loop(plan, args.seconds / 2, &tracer, plain.jobs);
    out.attempted += plain.records + traced.records;
    out.failed += plain.failed + traced.failed;
    auto& m = out.metrics;
    const auto mean_us = [&](SpanName name) {
      const auto n = tracer.count(name);
      return n == 0 ? 0.0 : static_cast<double>(tracer.busy_ns(name)) / 1e3 /
                                static_cast<double>(n);
    };
    const double stream_ns = traced.stream_s * 1e9;
    m["stream.source_us"] = {mean_us(SpanName::kSourceNext), "us"};
    m["stream.sink_us"] = {mean_us(SpanName::kSinkConsume), "us"};
    m["stream.serial_share"] = {
        static_cast<double>(tracer.busy_ns(SpanName::kSourceNext) +
                            tracer.busy_ns(SpanName::kSinkConsume)) /
            stream_ns,
        "ratio"};
    m["stream.worker_busy_frac"] = {
        static_cast<double>(tracer.busy_ns(SpanName::kSolve)) /
            (stream_ns * kWorkers),
        "ratio"};
    m["stream.max_in_flight"] = {static_cast<double>(traced.max_in_flight),
                                 "count"};
    if (plan.cache) {
      m["cache.hit_ratio"] = {
          static_cast<double>(traced.cache_hits) /
              static_cast<double>(traced.cache_hits + traced.cache_misses),
          "ratio"};
      m["cache.relabeled_frac"] = {
          static_cast<double>(traced.relabeled) /
              static_cast<double>(traced.records),
          "ratio"};
    }
    m["trace.overhead_frac"] = {clean_rate(plain) / clean_rate(traced) - 1, "ratio"};
    replay_layers(plan.layer_inputs, m);
    const std::string path = args.run_dir + "/spans-" + args.workload + ".jsonl";
    tracer.write(path);
    out.notes.push_back("spans written to " + path + " (dropped " +
                        std::to_string(tracer.dropped()) + ")");
  }
  if (out.failed > 0) out.correct = false;
  return out;
}

}  // namespace perfbench
