#include "src/engines/profile_engine.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/query_context.h"
#include "src/logic/builder.h"

namespace rwl::engines {
namespace {

using logic::C;
using logic::CondProp;
using logic::Formula;
using logic::FormulaPtr;
using logic::P;
using logic::Prop;
using logic::V;

semantics::ToleranceVector Tol(double v) {
  return semantics::ToleranceVector::Uniform(v);
}

TEST(ProfileEngine, SupportsOnlyUnaryRelational) {
  ProfileEngine engine;
  logic::Vocabulary unary;
  unary.AddPredicate("A", 1);
  unary.AddConstant("K");
  QueryContext unary_ctx(unary, Formula::True(), /*caching_enabled=*/false);
  EXPECT_TRUE(engine.Supports(unary_ctx, Formula::True(), 16));

  logic::Vocabulary binary;
  binary.AddPredicate("R", 2);
  QueryContext binary_ctx(binary, Formula::True(), /*caching_enabled=*/false);
  EXPECT_FALSE(engine.Supports(binary_ctx, Formula::True(), 16));

  logic::Vocabulary functional;
  functional.AddPredicate("A", 1);
  functional.AddFunction("F", 1);
  QueryContext functional_ctx(functional, Formula::True(),
                              /*caching_enabled=*/false);
  EXPECT_FALSE(engine.Supports(functional_ctx, Formula::True(), 16));
}

TEST(ProfileEngine, TrivialPriorIsHalf) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("White", 1);
  vocab.AddConstant("B");
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  ProfileEngine engine;
  for (int n : {1, 4, 16, 64}) {
    FiniteResult r = engine.DegreeAt(ctx, P("White", C("B")), n, Tol(0.1));
    ASSERT_TRUE(r.well_defined);
    EXPECT_NEAR(r.probability, 0.5, 1e-9) << "N=" << n;
  }
}

TEST(ProfileEngine, DirectInferenceAtLargeN) {
  // Example 5.8 core: Pr(Hep(Eric) | Jaun(Eric) ∧ ||Hep|Jaun|| ≈ 0.8) ≈ 0.8.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Hep", 1);
  vocab.AddPredicate("Jaun", 1);
  vocab.AddConstant("Eric");
  FormulaPtr kb = Formula::And(
      P("Jaun", C("Eric")),
      logic::ApproxEq(CondProp(P("Hep", V("x")), P("Jaun", V("x")), {"x"}),
                      0.8, 1));
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  ProfileEngine engine;
  FiniteResult r = engine.DegreeAt(ctx, P("Hep", C("Eric")), 60, Tol(0.05));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 0.8, 0.03);
}

TEST(ProfileEngine, WorldCountMatchesClosedForm) {
  // KB = true over one predicate: total worlds = 2^N.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  ProfileEngine engine;
  FiniteResult r = engine.DegreeAt(ctx, Formula::True(), 10, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.log_denominator, 10 * std::log(2.0), 1e-9);
}

TEST(ProfileEngine, WorldCountWithConstant) {
  // One predicate + one constant: 2^N · N interpretations.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  vocab.AddConstant("K");
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  ProfileEngine engine;
  FiniteResult r = engine.DegreeAt(ctx, Formula::True(), 8, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.log_denominator, 8 * std::log(2.0) + std::log(8.0), 1e-9);
}

TEST(ProfileEngine, TaxonomyPruningMatchesSemantics) {
  // ∀x(Penguin ⇒ Bird): atoms with Penguin ∧ ¬Bird are forced empty.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Bird", 1);
  vocab.AddPredicate("Penguin", 1);
  FormulaPtr kb = Formula::ForAll(
      "x", Formula::Implies(P("Penguin", V("x")), P("Bird", V("x"))));
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  ProfileEngine engine;
  FiniteResult r = engine.DegreeAt(ctx, Formula::True(), 6, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  // Each element independently: 3 allowed atoms of 4 → 3^6 worlds.
  EXPECT_NEAR(r.log_denominator, 6 * std::log(3.0), 1e-9);
}

TEST(ProfileEngine, UnsatisfiableIsUndefined) {
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  FormulaPtr kb = Formula::And(Formula::Exists("x", P("A", V("x"))),
                               Formula::ForAll("x", Formula::Not(P("A", V("x")))));
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  ProfileEngine engine;
  FiniteResult r = engine.DegreeAt(ctx, Formula::True(), 8, Tol(0.1));
  EXPECT_FALSE(r.well_defined);
}

TEST(ProfileEngine, EqualityBetweenConstants) {
  logic::Vocabulary vocab;
  vocab.AddConstant("C1");
  vocab.AddConstant("C2");
  // With an empty predicate set there is a single atom; placements encode
  // only coincidence.  Pr(C1 = C2) = 1/N.
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  ProfileEngine engine;
  for (int n : {2, 5, 10}) {
    FiniteResult r =
        engine.DegreeAt(ctx, logic::Eq(C("C1"), C("C2")), n, Tol(0.1));
    ASSERT_TRUE(r.well_defined);
    EXPECT_NEAR(r.probability, 1.0 / n, 1e-9) << "N=" << n;
  }
}

TEST(ProfileEngine, DefaultsConcentrate) {
  // Birds typically fly; Tweety is a bird ⇒ Pr(Fly(Tweety)) → 1.
  logic::Vocabulary vocab;
  vocab.AddPredicate("Bird", 1);
  vocab.AddPredicate("Fly", 1);
  vocab.AddConstant("Tweety");
  FormulaPtr kb = Formula::And(
      P("Bird", C("Tweety")),
      logic::Default(P("Bird", V("x")), P("Fly", V("x")), {"x"}));
  QueryContext ctx(vocab, kb, /*caching_enabled=*/false);
  ProfileEngine engine;
  FiniteResult r = engine.DegreeAt(ctx, P("Fly", C("Tweety")), 80, Tol(0.02));
  ASSERT_TRUE(r.well_defined);
  EXPECT_GT(r.probability, 0.95);
}

TEST(ProfileEngine, ExistentialQuantifierOverProfiles) {
  // Pr(∃x A(x)) = 1 - 2^-N.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  ProfileEngine engine;
  FiniteResult r = engine.DegreeAt(ctx, Formula::Exists("x", P("A", V("x"))),
                                   6, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 1.0 - std::pow(2.0, -6), 1e-9);
}

TEST(ProfileEngine, TwoVariableProportionQuery) {
  // Pr over worlds of ||A(x) ∧ A(y)||_{x,y} ≤ 1: trivially true.
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  ProfileEngine engine;
  FormulaPtr query = Formula::Compare(
      Prop(Formula::And(P("A", V("x")), P("A", V("y"))), {"x", "y"}),
      logic::CompareOp::kLeq, logic::Num(1.0));
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, query, 6, Tol(0.1));
  ASSERT_TRUE(r.well_defined);
  EXPECT_NEAR(r.probability, 1.0, 1e-12);
}

TEST(ProfileEngine, BudgetExhaustionReported) {
  ProfileEngine::Options options;
  options.max_leaves = 3;
  ProfileEngine engine(options);
  logic::Vocabulary vocab;
  vocab.AddPredicate("A", 1);
  vocab.AddPredicate("B", 1);
  QueryContext ctx(vocab, Formula::True(), /*caching_enabled=*/false);
  FiniteResult r = engine.DegreeAt(ctx, Formula::True(), 32, Tol(0.1));
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.well_defined);
}

}  // namespace
}  // namespace rwl::engines
