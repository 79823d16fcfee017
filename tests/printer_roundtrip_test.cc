// Parser/printer round-trip property over generated formulas: under the
// interning arena, Parse(Print(f)) is not merely structurally equal to f —
// it is the SAME canonical node (pointer equality).  This is the property
// the corpus format and every textual reproducer rely on.
#include <random>

#include <gtest/gtest.h>

#include "src/logic/builder.h"
#include "src/logic/parser.h"
#include "src/logic/printer.h"
#include "src/workload/generators.h"

namespace rwl::logic {
namespace {

void ExpectRoundTrip(const FormulaPtr& f) {
  std::string text = ToString(f);
  ParseResult parsed = ParseFormula(text);
  ASSERT_TRUE(parsed.ok()) << "printed '" << text
                           << "' failed to parse: " << parsed.error;
  EXPECT_EQ(parsed.formula.get(), f.get())
      << "round trip lost identity: '" << text << "' reparsed as '"
      << ToString(parsed.formula) << "'";
}

TEST(PrinterRoundTrip, RandomUnaryKbsAndQueries) {
  std::mt19937 rng(20260730);
  for (int trial = 0; trial < 200; ++trial) {
    workload::UnaryKbParams params;
    params.num_predicates = 1 + trial % 3;
    params.num_constants = 1 + trial % 2;
    params.num_statements = 1 + trial % 3;
    params.num_facts = trial % 3;
    params.default_fraction = (trial % 4) * 0.25;
    params.max_depth = 1 + trial % 3;  // deep nesting included
    ExpectRoundTrip(workload::RandomUnaryKb(params, &rng));
    ExpectRoundTrip(workload::RandomQuery(params, &rng));
  }
}

TEST(PrinterRoundTrip, RandomMixedKbsAndQueries) {
  std::mt19937 rng(20260731);
  for (int trial = 0; trial < 200; ++trial) {
    workload::MixedKbParams params;
    params.num_unary = 1 + trial % 2;
    params.num_binary = 1 + trial % 2;
    params.num_constants = 1 + trial % 3;
    params.num_facts = 1 + trial % 2;
    params.num_axioms = trial % 3;
    params.num_statements = trial % 2;
    params.max_depth = 1 + trial % 3;
    ExpectRoundTrip(workload::RandomMixedKb(params, &rng));
    ExpectRoundTrip(workload::RandomMixedQuery(params, &rng));
  }
}

TEST(PrinterRoundTrip, RandomChainKbs) {
  std::mt19937 rng(20260732);
  for (int trial = 0; trial < 50; ++trial) {
    workload::ChainKb chain = workload::RandomChainKb(2 + trial % 3, &rng);
    ExpectRoundTrip(chain.kb);
    ExpectRoundTrip(chain.query);
  }
}

TEST(PrinterRoundTrip, HandWrittenEdgeCases) {
  TermPtr x = V("x");
  TermPtr k = C("K0");
  std::vector<FormulaPtr> cases = {
      Formula::True(),
      Formula::False(),
      P0("Raining"),
      Formula::Not(Formula::Not(P("A", k))),
      Eq(k, C("K1")),
      Formula::Iff(P("A", k), Formula::Implies(P("B", k), P("A", k))),
      ExistsUnique("x", P("A", x)),
      ExactlyN(2, "x", P("A", x)),
      // Nested proportion arithmetic with non-default tolerance indices.
      Formula::Compare(
          Expr::Add(Prop(P("A", x), {"x"}),
                    Expr::Mul(Num(0.25), CondProp(P("A", x), P("B", x),
                                                  {"x"}))),
          CompareOp::kApproxGeq, Num(1.0 / 3.0), 7),
      // Exact connectives (L= fragment).
      Formula::Compare(Prop(P("A", x), {"x"}), CompareOp::kLeq, Num(0.5)),
      Formula::Compare(Prop(P("A", x), {"x"}), CompareOp::kEq, Num(0.125)),
      // Values %.17g prints in exponent form.
      ApproxEq(Prop(P("A", x), {"x"}), 2.6e-05, 1),
      Formula::Compare(Prop(P("A", x), {"x"}), CompareOp::kLeq, Num(1e-05)),
      Formula::Compare(Prop(P("A", x), {"x"}), CompareOp::kGeq, Num(1e-300)),
  };
  for (const auto& f : cases) ExpectRoundTrip(f);
}

}  // namespace
}  // namespace rwl::logic
