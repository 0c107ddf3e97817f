// Single-thread replays of each layer's public functions over a
// workload's own inputs (traced runs only). Each replay repeats its pass
// until it has run for a minimum time and reports the mean per call.
#include <functional>
#include <sstream>

#include "harness.hpp"

namespace perfbench {

using namespace storesched;

namespace {

constexpr double kMinReplaySeconds = 0.05;

/// Runs `pass` (which returns how many calls it made) until
/// kMinReplaySeconds have passed; returns nanoseconds per call.
double per_call_ns(const std::function<std::size_t()>& pass) {
  std::size_t calls = 0;
  const auto start = Clock::now();
  auto now = start;
  do {
    calls += pass();
    now = Clock::now();
  } while (seconds_between(start, now) < kMinReplaySeconds);
  return calls == 0 ? 0.0
                    : static_cast<double>(ns_between(start, now)) /
                          static_cast<double>(calls);
}

std::size_t total_tasks(const std::vector<Instance>& instances) {
  std::size_t tasks = 0;
  for (const Instance& inst : instances) tasks += inst.n();
  return tasks;
}

/// Mean microseconds of one solve of each instance under `spec`; fills
/// `results` with the last pass's results.
double solve_us(const std::string& spec, const std::vector<Instance>& instances,
                std::vector<SolveResult>& results) {
  if (instances.empty()) return 0;
  const auto solver = make_solver(spec);
  results.resize(instances.size());
  return per_call_ns([&] {
           for (std::size_t i = 0; i < instances.size(); ++i) {
             results[i] = solver->solve(instances[i]);
           }
           return instances.size();
         }) /
         1e3;
}

}  // namespace

void replay_layers(const LayerInputs& in, std::map<std::string, Metric>& out) {
  const std::vector<Instance>& indep = in.independent;
  std::vector<Instance> all = indep;
  all.insert(all.end(), in.dags.begin(), in.dags.end());
  const double tasks_per_pass = static_cast<double>(total_tasks(all));

  // io: JSONL instance parse and result serialization.
  std::vector<std::string> lines;
  for (const Instance& inst : all) lines.push_back(instance_to_jsonl(inst));
  const double parse_ns_per_pass = per_call_ns([&] {
    for (const std::string& line : lines) instance_from_jsonl(line);
    return std::size_t{1};
  });
  out["io.parse_ns_per_task"] = {parse_ns_per_pass / tasks_per_pass, "ns"};

  // solve kernels (the results feed the later replays).
  std::vector<SolveResult> lpt_results, sbo_results, rls_results;
  out["solve.graham_lpt_us"] = {solve_us("graham:lpt", indep, lpt_results), "us"};
  out["solve.sbo_us"] = {solve_us("sbo:lpt,delta=3/2", indep, sbo_results), "us"};
  out["solve.rls_dag_us"] = {solve_us("rls:bottom,delta=3", in.dags, rls_results), "us"};
  std::vector<SolveResult> results = sbo_results;
  results.insert(results.end(), rls_results.begin(), rls_results.end());

  out["io.serialize_us"] = {per_call_ns([&] {
                              for (std::size_t i = 0; i < results.size(); ++i) {
                                result_to_jsonl(i, results[i]);
                              }
                              return results.size();
                            }) / 1e3,
                            "us"};

  // wire: binary decode through the public source.
  const std::string container = wire::encode_instances(all);
  const double decode_ns_per_pass = per_call_ns([&] {
    storage::BinaryInstanceSource source{std::string_view(container)};
    while (source.next()) {
    }
    return std::size_t{1};
  });
  out["wire.decode_ns_per_task"] = {decode_ns_per_pass / tasks_per_pass, "ns"};
  out["wire.bytes_per_record"] = {
      static_cast<double>(container.size()) / static_cast<double>(all.size()),
      "B"};

  // cache: key, miss, insert, hit -- over the independent instances, where
  // canonicalization sorts; DAG instances key by identity.
  {
    const std::string spec = in.cache_spec;
    const SolveOptions options;
    out["cache.key_us"] = {per_call_ns([&] {
                             for (const Instance& inst : all) {
                               const auto order = storage::canonical_order(inst);
                               storage::cache_key(inst, order, spec, options);
                             }
                             return all.size();
                           }) / 1e3,
                           "us"};
    std::size_t passes = 0;
    double miss_ns = 0, insert_ns = 0, hit_ns = 0;
    const auto start = Clock::now();
    do {
      storage::SolveCache cache;
      auto t0 = Clock::now();
      for (const Instance& inst : all) cache.lookup(inst, spec, options);
      auto t1 = Clock::now();
      for (std::size_t i = 0; i < all.size(); ++i) {
        cache.insert(all[i], spec, options, results[i]);
      }
      auto t2 = Clock::now();
      for (const Instance& inst : all) cache.lookup(inst, spec, options);
      auto t3 = Clock::now();
      miss_ns += static_cast<double>(ns_between(t0, t1));
      insert_ns += static_cast<double>(ns_between(t1, t2));
      hit_ns += static_cast<double>(ns_between(t2, t3));
      ++passes;
    } while (seconds_between(start, Clock::now()) < kMinReplaySeconds);
    const double calls = static_cast<double>(passes * all.size()) * 1e3;
    out["cache.miss_us"] = {miss_ns / calls, "us"};
    out["cache.insert_us"] = {insert_ns / calls, "us"};
    out["cache.hit_us"] = {hit_ns / calls, "us"};
  }

  // audit: the runtime checker over each result.
  out["audit.us"] = {per_call_ns([&] {
                       for (std::size_t i = 0; i < all.size(); ++i) {
                         audit_schedule(all[i], results[i].schedule, results[i]);
                       }
                       return all.size();
                     }) / 1e3,
                     "us"};

  // serve protocol: request parse and response serialization.
  std::vector<std::string> requests = in.request_lines;
  if (requests.empty()) {
    for (std::size_t i = 0; i < indep.size(); ++i) {
      requests.push_back("{\"id\":\"" + std::to_string(i) +
                         "\",\"spec\":\"graham:lpt\",\"instance\":" +
                         instance_to_jsonl(indep[i]) + "}");
    }
  }
  out["serve.request_parse_us"] = {per_call_ns([&] {
                                     for (const std::string& line : requests) {
                                       serve_request_from_jsonl(line);
                                     }
                                     return requests.size();
                                   }) / 1e3,
                                   "us"};
  out["serve.response_us"] = {per_call_ns([&] {
                                for (std::size_t i = 0; i < results.size(); ++i) {
                                  ServeResponse response;
                                  response.id = std::to_string(i);
                                  response.admission = ServeAdmission::kOk;
                                  response.spec = "sbo:lpt,delta=3/2";
                                  response.result = &results[i];
                                  serve_response_to_jsonl(response);
                                }
                                return results.size();
                              }) / 1e3,
                              "us"};
}

}  // namespace perfbench
