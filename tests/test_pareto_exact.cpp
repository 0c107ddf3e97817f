// Tests for the branch-and-bound exact Pareto engine (core/pareto_bb.hpp)
// and its pareto:exact solver surface: edge cases (empty, single task,
// all-equal weights, m >= n), the node-limit guard, the env-var engine
// toggle, and bit-identical-front agreement with the seed's brute-force
// walker on 120 randomized instances.
#include "core/pareto_bb.hpp"

#include <gtest/gtest.h>

#include "common/paper_instances.hpp"
#include "common/rng.hpp"
#include "core/solver.hpp"
#include "test_util.hpp"

namespace storesched {
namespace {

using testing::make_instance;

TEST(ParetoBb, RejectsPrecedence) {
  Dag d(1);
  const Instance inst({{1, 1}}, 1, d);
  EXPECT_THROW(enumerate_pareto_bb(inst), std::logic_error);
}

TEST(ParetoBb, EmptyInstance) {
  const Instance inst(std::vector<Task>{}, 2);
  const auto r = enumerate_pareto_bb(inst);
  ASSERT_EQ(r.front.size(), 1u);
  EXPECT_EQ(r.front[0].value, (ObjectivePoint{0, 0}));
  EXPECT_EQ(r.front, enumerate_pareto_reference(inst).front);
}

TEST(ParetoBb, SingleTask) {
  const Instance inst = make_instance({5}, {3}, 3);
  const auto r = enumerate_pareto_bb(inst);
  ASSERT_EQ(r.front.size(), 1u);
  EXPECT_EQ(r.front[0].value, (ObjectivePoint{5, 3}));
  EXPECT_TRUE(validate_schedule(inst, r.schedules[0]).ok);
}

TEST(ParetoBb, AllEqualWeightsSymmetryStress) {
  // Identical tasks maximize processor symmetry: the brute force walks
  // every set partition while the branch and bound collapses to the single
  // balanced front point. Cross-check where the walker is still feasible.
  const Instance small = make_instance(std::vector<Time>(12, 1),
                                       std::vector<Mem>(12, 1), 4);
  const auto bb = enumerate_pareto_bb(small);
  ASSERT_EQ(bb.front.size(), 1u);
  EXPECT_EQ(bb.front[0].value, (ObjectivePoint{3, 3}));
  EXPECT_EQ(bb.front, enumerate_pareto_reference(small).front);

  // Far past the walker's reach, in a blink for the branch and bound.
  const Instance big = make_instance(std::vector<Time>(48, 7),
                                     std::vector<Mem>(48, 7), 4);
  const auto r = enumerate_pareto_bb(big);
  ASSERT_EQ(r.front.size(), 1u);
  EXPECT_EQ(r.front[0].value, (ObjectivePoint{84, 84}));
}

TEST(ParetoBb, MoreProcessorsThanTasks) {
  // With m >= n every task can sit alone, so the single front point is
  // (max p, max s) and it dominates every other assignment.
  const Instance inst = make_instance({4, 7, 2}, {6, 1, 5}, 5);
  const auto r = enumerate_pareto_bb(inst);
  ASSERT_EQ(r.front.size(), 1u);
  EXPECT_EQ(r.front[0].value, (ObjectivePoint{7, 6}));
  EXPECT_EQ(r.front, enumerate_pareto_reference(inst).front);
}

TEST(ParetoBb, NodeLimitGuards) {
  // Anticorrelated weights: the ideal point (4, 4) is unachievable, so the
  // seeds cannot prune the root and the search must expand past one node.
  const Instance inst = make_instance({3, 2, 2}, {2, 2, 3}, 2);
  EXPECT_THROW(enumerate_pareto_bb(inst, /*limit=*/1), std::runtime_error);
}

TEST(ParetoBb, MatchesReferenceOnRandomizedInstances) {
  // The acceptance bar: bit-identical fronts (values and tag order) on
  // 120 randomized instances, zero weights included.
  Rng rng(2024);
  for (int trial = 0; trial < 120; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 4));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 11));
    std::vector<Time> p(n);
    std::vector<Mem> s(n);
    for (auto& v : p) v = rng.uniform_int(0, 20);
    for (auto& v : s) v = rng.uniform_int(0, 20);
    const Instance inst = make_instance(p, s, m);
    const auto bb = enumerate_pareto_bb(inst);
    const auto ref = enumerate_pareto_reference(inst);
    ASSERT_EQ(bb.front, ref.front) << "trial " << trial;
    for (const auto& pt : bb.front) {
      const Schedule& sched = bb.schedules[static_cast<std::size_t>(pt.tag)];
      EXPECT_TRUE(validate_schedule(inst, sched).ok);
      EXPECT_EQ(objectives(inst, sched), pt.value);
    }
  }
}

// ---------------------------------------------------------------------------
// The pareto:exact solver surface.
// ---------------------------------------------------------------------------

TEST(ParetoExactSolver, RegistryAndCanonicalNames) {
  EXPECT_EQ(make_solver("pareto")->name(), "pareto:exact");
  EXPECT_EQ(make_solver("pareto:exact")->name(), "pareto:exact");
  EXPECT_EQ(make_solver("pareto:exact,limit=1000")->name(),
            "pareto:exact,limit=1000");
  EXPECT_THROW(make_solver("pareto:approx"), std::invalid_argument);
  EXPECT_THROW(make_solver("pareto:exact,limit=0"), std::invalid_argument);
  EXPECT_THROW(make_solver("pareto:exact,limit=many"), std::invalid_argument);
  EXPECT_THROW(make_solver("pareto:exact,delta=2"), std::invalid_argument);
}

TEST(ParetoExactSolver, CapabilitiesAnnounceTheExactFront) {
  const auto solver = make_solver("pareto:exact");
  const Capabilities caps = solver->capabilities(3);
  EXPECT_TRUE(caps.exact_front);
  EXPECT_FALSE(caps.supports_precedence);
  // Ratios describe the returned schedule (the Cmax-optimal front end):
  // exact on Cmax, no Mmax promise (that end lives in the extras front).
  EXPECT_EQ(*caps.cmax_ratio, Fraction(1));
  EXPECT_FALSE(caps.mmax_ratio.has_value());
  // No other registered family produces an exact front.
  for (const std::string& spec : registered_solver_specs()) {
    if (spec == "pareto:exact") continue;
    EXPECT_FALSE(make_solver(spec)->capabilities(3).exact_front) << spec;
  }
}

TEST(ParetoExactSolver, SolveReturnsFrontViaExtras) {
  // Figure 2 front: (100, 199), (101, 101), (199, 100).
  const Instance inst = fig2_instance(100);
  const SolveResult r = make_solver("pareto:exact")->solve(inst);
  ASSERT_TRUE(r.feasible);
  ASSERT_TRUE(r.pareto.has_value());
  ASSERT_EQ(r.pareto->front.size(), 3u);
  EXPECT_EQ(r.pareto->front, enumerate_pareto(inst).front);
  // The returned schedule is the Cmax-optimal front end.
  EXPECT_EQ(r.objectives, (ObjectivePoint{100, 199}));
  EXPECT_EQ(objectives(inst, r.schedule), r.objectives);
  EXPECT_EQ(*r.cmax_ratio, Fraction(1));
  EXPECT_NE(r.diagnostics.find("exact front"), std::string::npos);
}

TEST(ParetoExactSolver, HonorsPrecedenceRejectionAndLimit) {
  Dag dag(2);
  dag.add_edge(0, 1);
  const Instance dag_inst({{1, 1}, {2, 2}}, 2, dag);
  EXPECT_THROW(make_solver("pareto:exact")->solve(dag_inst), std::logic_error);

  const Instance tight = make_instance({3, 2, 2}, {2, 2, 3}, 2);
  EXPECT_THROW(make_solver("pareto:exact,limit=1")->solve(tight),
               std::runtime_error);
}

TEST(ParetoExactSolver, HasNoDeltaKnob) {
  const Instance inst = make_instance({1, 2}, {2, 1}, 2);
  const std::vector<Fraction> grid{Fraction(1)};
  EXPECT_THROW(front(inst, "pareto:exact", grid), std::invalid_argument);
}

}  // namespace
}  // namespace storesched
