#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {
// The record the calling worker pulled last: workers solve the instance
// they pulled, on the same thread, so this names the solve's record.
thread_local std::uint64_t t_current_record = 0;
}  // namespace

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kJob: return "job";
    case SpanName::kSourceNext: return "stream.source";
    case SpanName::kSolve: return "solve";
    case SpanName::kSinkConsume: return "stream.sink";
    case SpanName::kRequest: return "serve.request";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : spans_(capacity + 1) {}

std::uint32_t Tracer::claim() {
  // Once full, stay off the shared counter: a plain load per span.
  if (next_.load(std::memory_order_relaxed) >= spans_.size()) return 0;
  const std::uint32_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  return slot < spans_.size() ? slot : 0;
}

void Tracer::add(SpanName name, std::int64_t start_ns, std::int64_t end_ns) {
  Totals& t = totals_[static_cast<std::size_t>(name)];
  t.count.fetch_add(1, std::memory_order_relaxed);
  t.busy_ns.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
}

std::size_t Tracer::kept() const {
  return std::min<std::size_t>(next_.load(), spans_.size()) - 1;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t counted = 0;
  for (const Totals& t : totals_) counted += t.count.load();
  return counted - kept();
}

std::uint32_t Tracer::open(SpanName name, std::uint32_t parent,
                           std::uint64_t record) {
  const std::uint32_t slot = claim();
  if (slot != 0) {
    spans_[slot].name = static_cast<std::uint32_t>(name);
    spans_[slot].parent = parent;
    spans_[slot].record = record;
  }
  return slot;
}

void Tracer::close(std::uint32_t slot, SpanName name, std::int64_t start_ns,
                   std::int64_t end_ns) {
  add(name, start_ns, end_ns);
  if (slot == 0) return;
  spans_[slot].start_ns = start_ns;
  spans_[slot].end_ns = end_ns;
}

void Tracer::record(SpanName name, std::uint32_t parent, std::uint64_t record,
                    std::int64_t start_ns, std::int64_t end_ns) {
  add(name, start_ns, end_ns);
  const std::uint32_t slot = claim();
  if (slot == 0) return;
  spans_[slot] = Span{static_cast<std::uint32_t>(name), parent, start_ns,
                      end_ns, record};
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 1; i <= kept(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\""
        << span_name(static_cast<SpanName>(s.name)) << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"record\":" << s.record << "}\n";
  }
  if (!out) throw std::runtime_error("short write of spans to " + path);
}

std::shared_ptr<const storesched::Instance> TracedSource::next() {
  const std::int64_t start = tracer_.now_ns();
  auto inst = inner_.next();
  const std::int64_t end = tracer_.now_ns();
  t_current_record = pulled_;
  tracer_.record(SpanName::kSourceNext, parent_, pulled_, start, end);
  if (inst) ++pulled_;
  return inst;
}

void TracedSink::consume(std::size_t index, storesched::SolveResult result) {
  const std::int64_t start = tracer_.now_ns();
  inner_.consume(index, std::move(result));
  tracer_.record(SpanName::kSinkConsume, parent_, index, start,
                 tracer_.now_ns());
}

storesched::SolveResult TimedSolver::do_solve(
    const storesched::Instance& inst,
    const storesched::SolveOptions& options) const {
  const std::int64_t start = tracer_.now_ns();
  storesched::SolveResult result = inner_->solve(inst, options);
  tracer_.record(SpanName::kSolve, parent_, t_current_record, start,
                 tracer_.now_ns());
  return result;
}

}  // namespace perfbench
