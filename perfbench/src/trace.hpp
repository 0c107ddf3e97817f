// In-memory span recorder for the traced run, plus the wrappers that put
// spans around each layer's public extension points: an InstanceSource and
// a ResultSink decorator, and a Solver whose do_solve() times the inner
// solve(). Spans (name, start, end, parent, record id) go into a
// preallocated array and are written out once, when the run ends; per-name
// busy time and counts are kept beside them so the per-layer figures need
// no second pass.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

enum class SpanName : std::uint32_t {
  kJob,           ///< one solve_stream call (set-up + stream)
  kSourceNext,    ///< InstanceSource::next()
  kSolve,         ///< Solver::solve() inside a worker
  kSinkConsume,   ///< ResultSink::consume()
  kRequest,       ///< one served request, scheduled send -> response
  kCount
};

const char* span_name(SpanName name);

struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;   ///< span slot of the cause; 0 = none
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t record = 0;   ///< record id within its job / request seq
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  std::int64_t now_ns() const { return ns_between(epoch_, Clock::now()); }

  /// Reserves a slot for a span whose end is not known yet (a parent).
  /// Slot 0 is never handed out, so 0 can mean "no parent" (or "dropped").
  std::uint32_t open(SpanName name, std::uint32_t parent, std::uint64_t record);
  void close(std::uint32_t slot, SpanName name, std::int64_t start_ns,
             std::int64_t end_ns);

  /// Records a finished span.
  void record(SpanName name, std::uint32_t parent, std::uint64_t record,
              std::int64_t start_ns, std::int64_t end_ns);

  std::uint64_t count(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)].count.load();
  }
  std::int64_t busy_ns(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)].busy_ns.load();
  }
  /// Spans counted but not kept, once the preallocated array is full.
  std::uint64_t dropped() const;

  /// Writes every kept span as one JSON line each.
  void write(const std::string& path) const;

 private:
  std::uint32_t claim();
  void add(SpanName name, std::int64_t start_ns, std::int64_t end_ns);
  std::size_t kept() const;

  // Each name's totals sit on their own cache line: workers update them
  // for every record, and sharing a line would make tracing the bottleneck.
  struct alignas(64) Totals {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::int64_t> busy_ns{0};
  };

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  alignas(64) std::atomic<std::uint32_t> next_{1};
  std::array<Totals, static_cast<std::size_t>(SpanName::kCount)> totals_{};
};

/// Source decorator: times next() and tags the pulling thread with the
/// record id, which the worker that pulled it keeps while it solves.
class TracedSource final : public storesched::InstanceSource {
 public:
  TracedSource(storesched::InstanceSource& inner, Tracer& tracer,
               std::uint32_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}
  std::shared_ptr<const storesched::Instance> next() override;
  std::optional<std::size_t> size_hint() const override {
    return inner_.size_hint();
  }
  std::optional<std::size_t> position() const override {
    return inner_.position();
  }

 private:
  storesched::InstanceSource& inner_;
  Tracer& tracer_;
  std::uint32_t parent_;
  std::uint64_t pulled_ = 0;
};

/// Sink decorator: times consume().
class TracedSink final : public storesched::ResultSink {
 public:
  TracedSink(storesched::ResultSink& inner, Tracer& tracer,
             std::uint32_t parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}
  void consume(std::size_t index, storesched::SolveResult result) override;

 private:
  storesched::ResultSink& inner_;
  Tracer& tracer_;
  std::uint32_t parent_;
};

/// Solver decorator: do_solve() times the inner solver's solve(). Keeps
/// the inner solver's name, so cache keys are unchanged.
class TimedSolver final : public storesched::Solver {
 public:
  TimedSolver(std::unique_ptr<storesched::Solver> inner, Tracer& tracer,
              std::uint32_t parent)
      : inner_(std::move(inner)), tracer_(tracer), parent_(parent) {}
  std::string name() const override { return inner_->name(); }
  storesched::Capabilities capabilities(int m) const override {
    return inner_->capabilities(m);
  }

 protected:
  storesched::SolveResult do_solve(
      const storesched::Instance& inst,
      const storesched::SolveOptions& options) const override;

 private:
  std::unique_ptr<storesched::Solver> inner_;
  Tracer& tracer_;
  std::uint32_t parent_;
};

}  // namespace perfbench
