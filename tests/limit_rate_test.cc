// Convergence tests for the rate-aware early exit in EstimateLimit's
// N-sweep (LimitOptions::rate_aware_early_exit): when successive degrees
// contract geometrically inside the convergence tolerance the sweep skips
// the remaining (most expensive) N points; when they do not, the sweep is
// unchanged point for point.
#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/engines/engine.h"
#include "src/engines/exact_engine.h"
#include "src/logic/builder.h"

namespace rwl::engines {
namespace {

using logic::C;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::V;

semantics::ToleranceVector Tol(double v) {
  return semantics::ToleranceVector::Uniform(v);
}

LimitOptions SweepOptions() {
  LimitOptions options;
  options.domain_sizes = {2, 3, 4, 5, 6};
  options.tolerance_scales = {1.0};
  return options;
}

TEST(RateAwareEarlyExit, SkipsTailPointsOnAConvergedSeries) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("P", 1);
  vocab.AddConstant("K");
  // Pr_N(P(K) | P(K)) = 1 at every N: deltas are identically zero, so the
  // rate bound fires as soon as two deltas exist.
  FormulaPtr kb = P("P", C("K"));
  FormulaPtr query = P("P", C("K"));
  ExactEngine exact;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);

  LimitResult full = EstimateLimit(exact, ctx, query, Tol(0.1),
                                   SweepOptions());
  LimitOptions early_options = SweepOptions();
  early_options.rate_aware_early_exit = true;
  LimitResult early = EstimateLimit(exact, ctx, query, Tol(0.1),
                                    early_options);

  ASSERT_TRUE(full.value.has_value());
  ASSERT_TRUE(early.value.has_value());
  EXPECT_EQ(*full.value, *early.value);
  EXPECT_TRUE(early.converged);
  // The full sweep evaluates all five N points; the rate-aware sweep stops
  // after the third (two zero deltas prove the tail).
  EXPECT_EQ(full.series.size(), 5u);
  EXPECT_EQ(early.series.size(), 3u);
}

TEST(RateAwareEarlyExit, LeavesNonContractingSeriesUntouched) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("P", 1);
  // Pr_N(∃x. P(x)) = 1 − 2^{−N}: deltas 2^{−N} stay above the default
  // convergence epsilon on this schedule, so no point may be skipped.
  FormulaPtr kb = Formula::True();
  FormulaPtr query = Formula::Exists("x", P("P", V("x")));
  ExactEngine exact;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);

  LimitResult full = EstimateLimit(exact, ctx, query, Tol(0.1),
                                   SweepOptions());
  LimitOptions early_options = SweepOptions();
  early_options.rate_aware_early_exit = true;
  LimitResult early = EstimateLimit(exact, ctx, query, Tol(0.1),
                                    early_options);

  ASSERT_EQ(full.series.size(), early.series.size());
  for (size_t i = 0; i < full.series.size(); ++i) {
    EXPECT_EQ(full.series[i].probability, early.series[i].probability);
    EXPECT_EQ(full.series[i].domain_size, early.series[i].domain_size);
  }
  EXPECT_EQ(full.converged, early.converged);
  ASSERT_EQ(full.value.has_value(), early.value.has_value());
  if (full.value.has_value()) EXPECT_EQ(*full.value, *early.value);
}

TEST(RateAwareEarlyExit, GeometricContractionStopsWithinTolerance) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("P", 1);
  FormulaPtr kb = Formula::True();
  FormulaPtr query = Formula::Exists("x", P("P", V("x")));
  ExactEngine exact;
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);

  // With a loose epsilon the 2^{−N} deltas (ratio 1/2, tail = delta) fall
  // inside the bound early; the skipped points may not move the estimate
  // by more than the epsilon.
  LimitOptions early_options = SweepOptions();
  early_options.rate_aware_early_exit = true;
  early_options.convergence_epsilon = 0.15;
  LimitResult early = EstimateLimit(exact, ctx, query, Tol(0.1),
                                    early_options);
  LimitOptions full_options = SweepOptions();
  full_options.convergence_epsilon = 0.15;
  LimitResult full = EstimateLimit(exact, ctx, query, Tol(0.1),
                                   full_options);

  ASSERT_TRUE(early.value.has_value());
  ASSERT_TRUE(full.value.has_value());
  EXPECT_TRUE(early.converged);
  EXPECT_LT(early.series.size(), full.series.size());
  EXPECT_NEAR(*early.value, *full.value, full_options.convergence_epsilon);
}

}  // namespace
}  // namespace rwl::engines
