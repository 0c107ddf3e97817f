// Shared helpers for the storesched test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/instance.hpp"
#include "common/types.hpp"

namespace storesched::testing {

/// Builds an independent instance from parallel p/s vectors.
inline Instance make_instance(std::vector<Time> p, std::vector<Mem> s, int m) {
  std::vector<Task> tasks;
  tasks.reserve(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) tasks.push_back({p[i], s[i]});
  return Instance(std::move(tasks), m);
}

/// Extracts the processing-time weights of an instance.
inline std::vector<std::int64_t> p_weights(const Instance& inst) {
  std::vector<std::int64_t> w;
  w.reserve(inst.n());
  for (const Task& t : inst.tasks()) w.push_back(t.p);
  return w;
}

/// Extracts the storage weights of an instance.
inline std::vector<std::int64_t> s_weights(const Instance& inst) {
  std::vector<std::int64_t> w;
  w.reserve(inst.n());
  for (const Task& t : inst.tasks()) w.push_back(t.s);
  return w;
}

/// Exhaustive optimum of the min-max-subset-sum problem (reference
/// implementation for cross-checking the real algorithms). Processors are
/// interchangeable, so task i may only join a processor already used or
/// open the next one (restricted-growth strings): every distinct partition
/// into at most m parts is visited exactly once, none pruned.
inline std::int64_t brute_force_partition(std::span<const std::int64_t> w,
                                          int m) {
  const std::size_t n = w.size();
  std::int64_t best = 0;
  for (const std::int64_t v : w) best += v;  // everything on one processor
  std::vector<std::int64_t> load(static_cast<std::size_t>(m), 0);
  const auto visit = [&](const auto& self, std::size_t i, int used) -> void {
    if (i == n) {
      best = std::min(best, *std::max_element(load.begin(), load.end()));
      return;
    }
    for (int p = 0; p < std::min(used + 1, m); ++p) {
      load[static_cast<std::size_t>(p)] += w[i];
      self(self, i + 1, std::max(used, p + 1));
      load[static_cast<std::size_t>(p)] -= w[i];
    }
  };
  visit(visit, 0, 0);
  return best;
}

/// One malformed wire line and the exact message its parser must throw.
struct RejectCase {
  std::string line;
  std::string what;
};

/// Expects parse(line) to throw std::runtime_error with exactly `what` for
/// every case -- the fuzz contract (one exception type) plus the message a
/// user debugging a bad line actually sees.
template <class Parse>
void expect_rejects(Parse parse, std::span<const RejectCase> cases) {
  for (const RejectCase& c : cases) {
    try {
      parse(c.line);
      ADD_FAILURE() << "accepted: " << c.line;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), c.what) << c.line;
    }
  }
}

}  // namespace storesched::testing
