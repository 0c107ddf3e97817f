#include "core/stream.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <istream>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>

#include "common/failpoint.hpp"
#include "common/io.hpp"
#include "common/json_reader.hpp"
#include "common/parallel.hpp"
#include "storage/result_cache.hpp"

namespace storesched {

// ---------------------------------------------------------------------------
// Sources.
// ---------------------------------------------------------------------------

std::shared_ptr<const Instance> SpanSource::next() {
  if (cursor_ >= instances_.size()) return nullptr;
  // Non-owning alias into the caller's span (which outlives the run by
  // contract): the in-memory batch path never copies an instance.
  return std::shared_ptr<const Instance>(std::shared_ptr<const Instance>(),
                                         &instances_[cursor_++]);
}

std::shared_ptr<const Instance> GeneratorSource::next() {
  std::optional<Instance> inst = fn_();
  if (!inst) return nullptr;
  return std::make_shared<const Instance>(std::move(*inst));
}

std::shared_ptr<const Instance> JsonlInstanceSource::next() {
  // Before any input is consumed: an injected fault here leaves the stream
  // positioned exactly where it was, so skip/retry policies keep reading.
  failpoint::hit("source.next");
  std::string line;
  while (std::getline(in_, line)) {
    ++line_number_;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    // The parser stamps the line number into its own error message, so a
    // bad line deep in a million-line stream is locatable as-is.
    return std::make_shared<const Instance>(
        instance_from_jsonl(line, line_number_));
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

void VectorSink::consume(std::size_t index, SolveResult result) {
  if (index >= results_.size()) {
    throw std::logic_error("VectorSink: index " + std::to_string(index) +
                           " outside the presized " +
                           std::to_string(results_.size()) + " results");
  }
  results_[index] = std::move(result);
}

std::string result_to_jsonl(std::size_t index, const SolveResult& result,
                            const JsonlResultOptions& options) {
  return "{\"index\":" + std::to_string(index) +
         result_jsonl_fields(result, options) + "}";
}

std::string result_jsonl_fields(const SolveResult& result,
                                const JsonlResultOptions& options) {
  std::ostringstream os;
  os << ",\"feasible\":" << (result.feasible ? "true" : "false");
  if (result.feasible) {
    os << ",\"cmax\":" << result.objectives.cmax
       << ",\"mmax\":" << result.objectives.mmax;
    if (result.sum_ci) os << ",\"sum_ci\":" << *result.sum_ci;
  }
  os << ",\"delta\":\"" << result.delta.to_string() << '"';
  const auto fraction_field = [&](const char* key,
                                  const std::optional<Fraction>& value) {
    if (value) os << ",\"" << key << "\":\"" << value->to_string() << '"';
  };
  fraction_field("cmax_bound", result.cmax_bound);
  fraction_field("mmax_bound", result.mmax_bound);
  fraction_field("cmax_ratio", result.cmax_ratio);
  fraction_field("mmax_ratio", result.mmax_ratio);
  fraction_field("sumci_ratio", result.sumci_ratio);
  if (!result.diagnostics.empty()) {
    os << ",\"diagnostics\":\"" << json_escape(result.diagnostics) << '"';
  }
  if (options.include_schedule && result.feasible) {
    os << ",\"proc\":[";
    for (std::size_t i = 0; i < result.schedule.n(); ++i) {
      os << (i ? "," : "") << result.schedule.proc(static_cast<TaskId>(i));
    }
    os << ']';
    if (result.schedule.timed()) {
      os << ",\"start\":[";
      for (std::size_t i = 0; i < result.schedule.n(); ++i) {
        os << (i ? "," : "") << result.schedule.start(static_cast<TaskId>(i));
      }
      os << ']';
    }
  }
  return os.str();
}

void JsonlResultSink::consume(std::size_t index, SolveResult result) {
  out_ << result_to_jsonl(index, result, options_) << '\n';
  if (!out_) {
    throw StreamWriteError(
        "JsonlResultSink: write failed (ostream badbit/failbit set)");
  }
}

void JsonlErrorSink::consume(StreamError error) {
  out_ << stream_error_to_jsonl(error) << '\n';
  if (!out_) {
    throw StreamWriteError(
        "JsonlErrorSink: write failed (ostream badbit/failbit set)");
  }
}

// ---------------------------------------------------------------------------
// Error records on the wire.
// ---------------------------------------------------------------------------

const char* to_string(StreamErrorCategory category) {
  switch (category) {
    case StreamErrorCategory::kSource:
      return "source";
    case StreamErrorCategory::kSolve:
      return "solve";
    case StreamErrorCategory::kSink:
      return "sink";
  }
  return "unknown";
}

std::string stream_error_to_jsonl(const StreamError& error) {
  std::ostringstream os;
  os << "{\"index\":" << error.index
     << ",\"error\":true,\"category\":\"" << to_string(error.category) << '"';
  if (error.line != 0) os << ",\"line\":" << error.line;
  os << ",\"attempts\":" << error.attempts << ",\"what\":\""
     << json_escape(error.what) << "\"}";
  return os.str();
}

namespace {

/// Error-record numbers: unsigned, no leading zero, at most 18 digits.
std::size_t read_uint(JsonReader& r) {
  const std::size_t begin = r.pos();
  if (r.canonical_digits().size() > 18) r.fail("number too large");
  std::size_t value = 0;
  r.parse_since(begin, value);
  return value;
}

}  // namespace

// Strict: exactly the emitted grammar (no whitespace), keys in any order
// but none unknown, duplicated, or missing. Errors carry the byte offset
// -- an error channel that has itself gone bad should be locatable, not
// guessed at.
StreamError stream_error_from_jsonl(const std::string& line) {
  enum Key : std::size_t { kIndex, kMarker, kCategory, kLine, kAttempts, kWhat };
  static constexpr std::string_view kKeys[] = {"index", "error",    "category",
                                               "line",  "attempts", "what"};
  JsonReader r(line, /*whitespace=*/false);
  unsigned seen = 0;
  StreamError error;
  try {
    r.expect('{');
    do {
      const std::string key = r.string();
      r.expect(':');
      switch (static_cast<Key>(r.claim(kKeys, key, seen))) {
        case kIndex:
          error.index = read_uint(r);
          break;
        case kMarker:
          if (!r.literal("true")) r.fail("\"error\" must be true");
          break;
        case kCategory: {
          const std::string token = r.string();
          if (token == "source") {
            error.category = StreamErrorCategory::kSource;
          } else if (token == "solve") {
            error.category = StreamErrorCategory::kSolve;
          } else if (token == "sink") {
            error.category = StreamErrorCategory::kSink;
          } else {
            r.fail("unknown category \"" + token + "\"");
          }
          break;
        }
        case kLine:
          error.line = read_uint(r);
          if (error.line == 0) r.fail("\"line\" must be >= 1 when present");
          break;
        case kAttempts: {
          const std::size_t attempts = read_uint(r);
          if (attempts == 0 || attempts > 1000000) {
            r.fail("\"attempts\" outside [1, 1000000]");
          }
          error.attempts = static_cast<int>(attempts);
          break;
        }
        case kWhat:
          error.what = r.string();
          break;
      }
    } while (r.consume(','));
    r.expect('}');
    if (!r.at_end()) r.fail("trailing bytes after the record");
    if ((seen & 1u << kIndex) == 0) r.fail("missing \"index\"");
    if ((seen & 1u << kMarker) == 0) r.fail("missing \"error\" marker");
    if ((seen & 1u << kCategory) == 0) r.fail("missing \"category\"");
    if ((seen & 1u << kAttempts) == 0) r.fail("missing \"attempts\"");
    if ((seen & 1u << kWhat) == 0) r.fail("missing \"what\"");
  } catch (const JsonSyntaxError& e) {
    throw std::runtime_error("stream error record: " + e.what + " (at byte " +
                             std::to_string(e.offset) + ")");
  }
  return error;
}

// ---------------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------------

namespace {

/// Rethrows `error` with the instance index attached to the message,
/// preserving the standard exception type where there is one (the
/// solve_batch contract: an SBO batch hitting a DAG instance still throws
/// std::logic_error, now naming the instance).
[[noreturn]] void rethrow_with_index(std::size_t index,
                                     const std::exception_ptr& error) {
  const std::string prefix =
      "solve_stream: instance " + std::to_string(index) + ": ";
  try {
    std::rethrow_exception(error);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(prefix + e.what());
  } catch (const std::logic_error& e) {
    throw std::logic_error(prefix + e.what());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(prefix + e.what());
  } catch (const std::exception& e) {
    throw std::runtime_error(prefix + e.what());
  } catch (...) {
    throw std::runtime_error(prefix + "unknown exception");
  }
}

std::string describe_error(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Default transient-vs-deterministic classification (RetryPolicy docs):
/// logic errors (a solver rejecting the instance shape) and dead output
/// streams will fail identically every time -- retrying burns backoff for
/// nothing. Everything else, injected faults included, is worth another
/// try.
bool default_retryable(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const StreamWriteError&) {
    return false;
  } catch (const std::logic_error&) {  // includes std::invalid_argument
    return false;
  } catch (...) {
    return true;
  }
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Backoff before re-attempt number `failures`+1: exponential in the
/// failure count, capped, scaled by a deterministic jitter factor in
/// [0.5, 1.5) keyed on (seed, record index, failure count) so concurrent
/// retries de-correlate without making runs irreproducible.
std::chrono::nanoseconds backoff_delay(const RetryPolicy& policy,
                                       std::size_t index, int failures) {
  const double cap = static_cast<double>(policy.max_backoff.count());
  double ns = static_cast<double>(policy.base_backoff.count());
  for (int i = 1; i < failures && ns < cap; ++i) ns *= policy.multiplier;
  ns = std::clamp(ns, 0.0, cap);
  const std::uint64_t draw = splitmix64(
      splitmix64(policy.jitter_seed ^ static_cast<std::uint64_t>(index)) +
      static_cast<std::uint64_t>(failures));
  const double jitter = 0.5 + static_cast<double>(draw >> 11) * 0x1.0p-53;
  return std::chrono::nanoseconds(static_cast<std::int64_t>(ns * jitter));
}

/// Rough byte footprint of one in-flight unit of work (the pulled instance
/// plus its result, extras channels included). Drives the adaptive window;
/// an estimate, not allocator-exact accounting.
std::size_t schedule_bytes(const Schedule& s) {
  return s.n() * (sizeof(ProcId) + sizeof(Time));
}

std::size_t estimate_footprint(const Instance& inst, const SolveResult& r) {
  std::size_t bytes = sizeof(Instance) + sizeof(SolveResult);
  bytes += inst.n() * sizeof(Task);
  if (inst.has_precedence()) {
    bytes += inst.n() * 2 * sizeof(std::vector<TaskId>) +
             inst.dag().edge_count() * 2 * sizeof(TaskId);
  }
  bytes += schedule_bytes(r.schedule) + r.diagnostics.size();
  if (r.rls) {
    bytes += schedule_bytes(r.rls->schedule) + r.rls->marked.size() / 8;
  }
  if (r.sbo) {
    bytes += schedule_bytes(r.sbo->schedule) + schedule_bytes(r.sbo->pi1) +
             schedule_bytes(r.sbo->pi2) + r.sbo->routed_to_pi2.size() / 8;
  }
  if (r.pareto) {
    for (const Schedule& s : r.pareto->schedules) bytes += schedule_bytes(s);
    bytes += r.pareto->front.size() * sizeof(ObjectivePoint);
  }
  return bytes;
}

/// How one pulled index ended: a result to deliver or a failure to record.
/// `source_pos` is the source's position when the index was pulled --
/// pulls are serialized under the lock, so positions are monotone in the
/// index and the ordered-mode progress/journal contract holds.
struct Outcome {
  std::variant<SolveResult, StreamError> payload;
  std::size_t source_pos = 0;
  bool retried = false;  ///< the solve needed >= 1 re-attempt
};

/// Shared pipeline state; mutable fields are guarded by `mu`, the policy
/// block at the bottom is read-only once the crew starts.
struct PipelineState {
  std::mutex mu;
  /// One condition for both "a window slot freed up" and "state changed"
  /// (failure, cancellation, source exhausted).
  std::condition_variable cv;

  std::size_t next_index = 0;    ///< index the next pull will get
  std::size_t in_flight = 0;     ///< pulled but not yet retired
  bool source_done = false;
  bool failed = false;
  std::exception_ptr error;
  std::size_t error_index = 0;

  /// The in-flight bound. Fixed for an explicit StreamOptions::window;
  /// otherwise re-sized after every completion so that
  /// window x (smoothed footprint) stays within the memory budget.
  std::size_t window_limit = 0;
  bool adaptive = false;
  std::size_t window_floor = 1;       ///< worker count
  std::size_t memory_budget = 0;      ///< bytes (adaptive mode only)
  double footprint_ewma = 0.0;        ///< smoothed estimate_footprint()
  bool footprint_seen = false;

  std::size_t next_deliver = 0;            ///< ordered mode: retirement head
  std::map<std::size_t, Outcome> pending;  ///< ordered mode: reorder buffer

  // Failure policy, resolved once in solve_stream before the crew starts.
  FailureAction action = FailureAction::kAbort;
  RetryPolicy retry;
  std::function<bool(const std::exception_ptr&)> retryable;
  ErrorSink* errors = nullptr;
  const std::function<void(const StreamProgress&)>* progress = nullptr;
  bool ordered = true;

  StreamStats stats;
};

/// Records the first failure and wakes everyone. Lock must be held.
void record_failure(PipelineState& state, std::size_t index,
                    std::exception_ptr error) {
  if (!state.failed) {
    state.failed = true;
    state.error = std::move(error);
    state.error_index = index;
  }
  state.cv.notify_all();
}

/// Adaptive window step: fold one observed footprint into the smoothed
/// estimate and re-derive the bound. Lock must be held.
void observe_footprint(PipelineState& state, std::size_t bytes) {
  if (!state.adaptive) return;
  const auto f = static_cast<double>(bytes);
  state.footprint_ewma = state.footprint_seen
                             ? state.footprint_ewma + (f - state.footprint_ewma) / 8.0
                             : f;
  state.footprint_seen = true;
  constexpr std::size_t kWindowCeiling = 4096;
  const auto per_unit =
      static_cast<std::size_t>(std::max(state.footprint_ewma, 1.0));
  state.window_limit =
      std::clamp(state.memory_budget / per_unit, state.window_floor,
                 kWindowCeiling);
}

/// Retires `index` as failed: accounts it and forwards the record to the
/// error channel. A throwing ErrorSink aborts the run regardless of policy
/// -- once the error channel is lost the run's accounting cannot be
/// trusted. Lock must be held. Returns false when the pipeline must stop.
bool emit_error(PipelineState& state, StreamError error) {
  --state.in_flight;
  ++state.stats.failed;
  if (state.errors != nullptr) {
    const std::size_t index = error.index;
    try {
      state.errors->consume(std::move(error));
    } catch (...) {
      record_failure(state, index, std::current_exception());
      return false;
    }
  }
  return true;
}

/// Hands one solved result to the sink, applying the failure policy to a
/// throwing consume(): abort records the failure, skip degrades the index
/// to an error record, retry re-attempts with an identical copy of the
/// result. Lock must be held; a retry backoff sleeps with the lock held --
/// sink calls are the serialization point, so a failing sink stalling the
/// pipeline IS backpressure. Returns false when the pipeline must stop.
bool emit_result(PipelineState& state, ResultSink& sink, std::size_t index,
                 Outcome out) {
  SolveResult& result = std::get<SolveResult>(out.payload);
  int attempt = 0;
  for (;;) {
    ++attempt;
    const bool may_retry = state.action == FailureAction::kRetry &&
                           attempt < state.retry.max_attempts;
    std::exception_ptr error;
    try {
      failpoint::hit("sink.consume");
      const bool feasible = result.feasible;
      if (may_retry) {
        SolveResult copy = result;  // keep the original for a re-attempt
        sink.consume(index, std::move(copy));
      } else {
        sink.consume(index, std::move(result));
      }
      --state.in_flight;
      ++state.stats.delivered;
      if (feasible) ++state.stats.feasible;
      if (out.retried || attempt > 1) ++state.stats.recovered;
      return true;
    } catch (...) {
      error = std::current_exception();
    }
    if (state.action == FailureAction::kAbort) {
      record_failure(state, index, error);
      return false;
    }
    if (may_retry && state.retryable(error)) {
      ++state.stats.retries;
      std::this_thread::sleep_for(backoff_delay(state.retry, index, attempt));
      continue;
    }
    return emit_error(state, StreamError{index, out.source_pos,
                                         StreamErrorCategory::kSink, attempt,
                                         describe_error(error)});
  }
}

/// Retires one outcome: results go to the sink, failures to the error
/// channel. Lock must be held. Returns false when the pipeline must stop.
bool retire(PipelineState& state, ResultSink& sink, std::size_t index,
            Outcome out) {
  if (std::holds_alternative<StreamError>(out.payload)) {
    return emit_error(state, std::move(std::get<StreamError>(out.payload)));
  }
  return emit_result(state, sink, index, std::move(out));
}

/// Routes one completed outcome toward retirement (immediately in
/// as-completed mode; via the reorder buffer in ordered mode, firing the
/// progress callback as the contiguous head advances). Lock must be held.
/// Returns false when the pipeline must stop.
bool deliver(PipelineState& state, ResultSink& sink, std::size_t index,
             Outcome out) {
  if (!state.ordered) return retire(state, sink, index, std::move(out));

  state.pending.emplace(index, std::move(out));
  while (!state.pending.empty() &&
         state.pending.begin()->first == state.next_deliver) {
    auto node = state.pending.extract(state.pending.begin());
    const std::size_t source_pos = node.mapped().source_pos;
    if (!retire(state, sink, node.key(), std::move(node.mapped()))) {
      return false;
    }
    ++state.next_deliver;
    if (state.progress != nullptr && *state.progress) {
      StreamProgress snapshot;
      snapshot.completed = state.next_deliver;
      snapshot.source_lines = source_pos;
      snapshot.delivered = state.stats.delivered;
      snapshot.failed = state.stats.failed;
      try {
        (*state.progress)(snapshot);
      } catch (...) {
        record_failure(state, state.next_deliver - 1,
                       std::current_exception());
        return false;
      }
    }
  }
  return true;
}

}  // namespace

StreamStats solve_stream(const Solver& solver, InstanceSource& source,
                         ResultSink& sink, const SolveOptions& options,
                         const StreamOptions& stream) {
  if (stream.on_error.action == FailureAction::kRetry &&
      stream.on_error.retry.max_attempts < 1) {
    throw std::invalid_argument(
        "solve_stream: retry.max_attempts must be >= 1");
  }
  const CancelToken* cancel = stream.cancel.get();
  // Right-size the crew: never more workers than instances (when the
  // source knows its size) and never more than the window has slots for.
  const std::size_t hint =
      source.size_hint().value_or(std::numeric_limits<std::size_t>::max());
  unsigned workers = parallel_worker_count(hint, stream.threads);
  const std::size_t window =
      stream.window > 0 ? stream.window : std::size_t{4} * workers;
  workers = static_cast<unsigned>(std::min<std::size_t>(workers, window));

  PipelineState state;
  if (workers <= 1) {
    // Single worker: the crew runs the loop inline on the calling thread
    // (run_worker_crew spawns nothing) and pull/solve/retire strictly
    // alternate -- in-flight never exceeds 1, so report window 1.
    state.window_limit = 1;
    state.adaptive = false;
  } else {
    state.window_limit = window;
    state.adaptive = stream.window == 0;
  }
  state.window_floor = workers;
  state.memory_budget = stream.memory_budget;
  state.next_index = stream.start_index;
  state.next_deliver = stream.start_index;
  state.ordered = stream.ordered;
  state.action = stream.on_error.action;
  state.retry = stream.on_error.retry;
  state.retryable =
      state.retry.retryable ? state.retry.retryable : default_retryable;
  state.errors = stream.errors;
  state.progress = &stream.progress;
  const auto cancelled = [&] { return cancel && cancel->cancelled(); };
  // The solver spec is part of the cache key; resolve it once, not per
  // record (Solver::name() may build a string).
  const std::string spec = stream.cache != nullptr ? solver.name() : std::string{};

  const auto worker = [&](unsigned) {
    for (;;) {
      std::unique_lock<std::mutex> lock(state.mu);
      // wait_for, not wait: an external thread cancelling the token has no
      // way to notify, so waiters re-check on a coarse timeout.
      while (!state.failed && !state.source_done && !cancelled() &&
             state.in_flight >= state.window_limit) {
        state.cv.wait_for(lock, std::chrono::milliseconds(20));
      }
      if (state.failed || state.source_done) return;
      if (cancelled()) {
        if (!state.stats.cancelled) {
          state.stats.cancelled = true;
          state.stats.cancel_reason = cancel->reason();
        }
        return;
      }

      // Pull under the lock: sources are single-consumer by contract.
      std::shared_ptr<const Instance> inst;
      std::exception_ptr pull_error;
      try {
        inst = source.next();
      } catch (...) {
        pull_error = std::current_exception();
      }
      const std::size_t source_pos = source.position().value_or(0);
      if (pull_error) {
        const std::size_t index = state.next_index++;
        if (state.action == FailureAction::kAbort) {
          record_failure(state, index, pull_error);
          return;
        }
        // Source faults are never retried: the source cannot re-produce
        // input it already consumed (stream.hpp file comment). Degrade to
        // skip-with-record and keep pulling.
        ++state.in_flight;
        Outcome out;
        out.source_pos = source_pos;
        out.payload =
            StreamError{index, source_pos, StreamErrorCategory::kSource, 1,
                        describe_error(pull_error)};
        if (!deliver(state, sink, index, std::move(out))) return;
        state.cv.notify_all();
        continue;
      }
      if (!inst) {
        state.source_done = true;
        state.cv.notify_all();
        return;
      }
      const std::size_t index = state.next_index++;
      ++state.in_flight;
      ++state.stats.pulled;
      state.stats.max_in_flight =
          std::max(state.stats.max_in_flight, state.in_flight);
      lock.unlock();

      // Solve outside the lock, re-attempting per policy. Backoff sleeps
      // are unlocked too: other workers keep streaming while this record
      // waits out its backoff.
      SolveResult result;
      bool solved = false;
      bool cache_hit = false;
      int attempt = 0;
      int extra_attempts = 0;
      std::exception_ptr solve_error;
      for (;;) {
        ++attempt;
        try {
          // Cache consult before the first cold attempt only: a record
          // that reached the retry path already missed. A hit under
          // STORESCHED_AUDIT=1 that fails its audit throws here and is
          // handled exactly like a deterministic solve fault.
          if (stream.cache != nullptr && attempt == 1) {
            if (auto cached = stream.cache->lookup(*inst, spec, options)) {
              result = *std::move(cached);
              solved = true;
              cache_hit = true;
              break;
            }
          }
          failpoint::hit("stream.solve");
          result = solver.solve(*inst, options);
          solved = true;
          if (stream.cache != nullptr) {
            stream.cache->insert(*inst, spec, options, result);
          }
          break;
        } catch (...) {
          solve_error = std::current_exception();
        }
        if (state.action != FailureAction::kRetry) break;
        if (attempt >= state.retry.max_attempts ||
            !state.retryable(solve_error)) {
          break;
        }
        ++extra_attempts;
        std::this_thread::sleep_for(
            backoff_delay(state.retry, index, attempt));
      }
      const std::size_t footprint =
          solved ? estimate_footprint(*inst, result) : 0;
      inst.reset();

      lock.lock();
      state.stats.retries += static_cast<std::size_t>(extra_attempts);
      if (cache_hit) {
        ++state.stats.cache_hits;
      } else if (stream.cache != nullptr) {
        ++state.stats.cache_misses;
      }
      if (state.failed) return;
      if (!solved && state.action == FailureAction::kAbort) {
        record_failure(state, index, solve_error);
        return;
      }
      Outcome out;
      out.source_pos = source_pos;
      if (solved) {
        observe_footprint(state, footprint);
        out.retried = attempt > 1;
        out.payload = std::move(result);
      } else {
        out.payload =
            StreamError{index, source_pos, StreamErrorCategory::kSolve,
                        attempt, describe_error(solve_error)};
      }
      if (!deliver(state, sink, index, std::move(out))) return;
      state.cv.notify_all();
    }
  };

  std::exception_ptr crew_error;
  try {
    run_worker_crew(workers, worker);
  } catch (...) {
    crew_error = std::current_exception();
  }

  // The crew has fully joined; no lock needed past here.
  if (state.failed) rethrow_with_index(state.error_index, state.error);
  if (crew_error) {
    // The worker body never lets an exception escape, so anything the crew
    // rethrew came from thread spawning. If the workers that did start
    // finished the stream anyway, degrade gracefully instead of discarding
    // a completed run.
    const bool completed =
        (state.source_done && state.in_flight == 0) || state.stats.cancelled;
    if (!completed) std::rethrow_exception(crew_error);
    state.stats.degraded_spawn = true;
  }
  state.stats.window = state.window_limit;
  state.stats.source_lines = source.position().value_or(0);
  return state.stats;
}

}  // namespace storesched
