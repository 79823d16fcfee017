// Inference: the public entry point for computing degrees of belief.
//
// Routes a (KB, query) pair through the strategies of the default
// EngineRegistry (core/engine_registry.h), in fidelity order:
//
//   fixed-n      Pr_N^τ at a known domain size (footnote 9; preemptive),
//   calibrated   a quantile interval over the sweep series (preemptive,
//                on request),
//   symbolic     closed-form Pr_∞ via the paper's theorems (full language),
//   profile      exact Pr_N^τ for unary KBs, swept over growing N and
//                shrinking τ to estimate the limit,
//   epsilon_semantics, klm, gmp90
//                the propositional-defaults fragment (Section 6),
//   evidence     Dempster combination (Theorem 5.26),
//   maxent       the true N→∞ limit for unary KBs,
//   exact        world enumeration at small N (tiny instances),
//   montecarlo   rejection sampling (opt-in).
//
// profile, exact and montecarlo are one SweepStrategy registered from three
// data rows in EngineRegistry::Default() (core/inference.cc).  The answer
// is a point value or interval together with the method that produced it
// and the convergence series (the data behind the paper-style convergence
// figures).
#ifndef RWL_CORE_INFERENCE_H_
#define RWL_CORE_INFERENCE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/knowledge_base.h"
#include "src/core/query_context.h"
#include "src/engines/engine.h"
#include "src/logic/formula.h"
#include "src/semantics/tolerance.h"

namespace rwl {

struct PlanTrace;  // core/planner.h

// How the planner orders applicable strategies (core/planner.h).
enum class PlanMode {
  // The paper's preference order (symbolic theorems, profile counting,
  // maximum entropy, enumeration): highest-fidelity candidate first, with
  // cost estimates used for capability gating, deadlines and budgets.
  kFidelity,
  // Cheapest predicted applicable candidate first — the service mode for
  // heavy traffic, where every engine estimates the same limit and the
  // planner's job is to spend the least work that yields an answer.
  kMinCost,
};

struct InferenceOptions {
  // Base tolerance vector (scaled down during the τ → 0 sweep).
  semantics::ToleranceVector tolerances{0.05};
  engines::LimitOptions limit;
  bool use_symbolic = true;
  bool use_profile = true;
  bool use_maxent = true;
  bool use_exact_fallback = true;
  // Opt-in: rejection-sampling sweep for instances outside every other
  // engine's fragment (binary predicates at medium N).  Off by default —
  // it turns some kUnknown answers into estimates, which callers must
  // want explicitly.
  bool use_montecarlo = false;
  // Sampling-error budget for the Monte-Carlo sweep: number of samples
  // per (N, ⃗τ) point (0 = the engine default).  Smaller budgets trade
  // accuracy for latency; the planner's cost model accounts for it.
  uint64_t montecarlo_samples = 0;
  // The defaults family (epsilon_semantics, klm, gmp90): exact limits for
  // KBs in the propositional-defaults fragment (defaults/fragment.h).
  bool use_defaults = true;
  // Dempster evidence combination for Theorem 5.26 instances
  // (evidence/combination.h).
  bool use_evidence = true;
  // Calibrated-interval mode (conformal-style): a value in (0, 1) asks
  // for an interval answer at confidence 1-δ with δ = 1-interval_confidence:
  // the preemptive `calibrated` strategy sweeps the numeric schedule and
  // returns the empirical quantile interval leaving out at most a δ
  // fraction of the well-defined sweep values (widened to include a
  // symbolic point when one exists).  0 (the default) disables the mode;
  // the differential `coverage` check verifies empirical coverage against
  // ground-truth enumeration over the same schedule.
  double interval_confidence = 0.0;
  // Footnote 9: when the true domain size is known (and small enough to
  // matter), compute Pr_N^τ at exactly this N instead of taking the
  // N → ∞ limit.  0 means unknown (take limits).
  int fixed_domain_size = 0;
  // Share derived state (KB analyses, satisfying-world lists, per-point
  // results) inside a query — and across queries when a batch shares one
  // QueryContext.  Answers are bit-identical either way; disabling is for
  // tests and measurement.
  bool enable_caching = true;

  // ---- Planner controls (core/planner.h) ----

  PlanMode plan_mode = PlanMode::kFidelity;
  // Per-query wall-clock deadline in milliseconds (0 = none).  The planner
  // stops starting candidates once the deadline passes, and sweeps stop
  // between grid points, so a query overshoots by at most one engine
  // probe.  Deadline-limited answers are wall-clock-dependent by nature.
  double deadline_ms = 0.0;
  // Per-candidate predicted-work budget in abstract engine work units
  // (engines::CostEstimate::work; 0 = none): candidates predicted over
  // budget are skipped, recorded in the plan trace.
  double work_budget = 0.0;
  // Force a single strategy by name, bypassing the planner (rwlq
  // --engine).  The forced strategy runs with its use_* switch enabled;
  // an inapplicable forced strategy yields kUnknown.
  std::string force_engine;
};

struct Answer {
  enum class Status {
    kPoint,        // Pr_∞ = value
    kInterval,     // Pr_∞ ∈ [lo, hi]
    kNonexistent,  // the limit provably does not exist
    kUndefined,    // KB not eventually consistent (no worlds)
    kUnknown,      // no engine could decide
  };
  Status status = Status::kUnknown;
  double value = 0.0;
  double lo = 0.0;
  double hi = 1.0;
  std::string method;
  std::string explanation;
  bool converged = false;
  std::vector<engines::SeriesPoint> series;
  // Structured plan trace: strategies assessed/tried, predicted vs
  // observed costs, skips and fallbacks (core/planner.h; rwlq --explain).
  // Shared, immutable; null only for answers produced outside the planner
  // (e.g. parse failures).
  std::shared_ptr<const PlanTrace> plan;
};

Answer DegreeOfBelief(const KnowledgeBase& kb, const logic::FormulaPtr& query,
                      const InferenceOptions& options = {});

// Convenience: parses the query from textual syntax.  Aborts on parse
// errors (tests and examples pass literals).
Answer DegreeOfBelief(const KnowledgeBase& kb, std::string_view query,
                      const InferenceOptions& options = {});

// Context form: answers against an existing QueryContext (whose vocabulary
// must already cover the query symbols — see MakeQueryContext).  All
// engine-derived state accumulates in the context, so repeated calls share
// work.
Answer DegreeOfBelief(QueryContext& ctx, const logic::FormulaPtr& query,
                      const InferenceOptions& options = {});

// Builds a context for a batch: one vocabulary covering the KB and every
// query.  Proportions are invariant under vocabulary extension (extra
// constants/predicates multiply world counts uniformly), so answers agree
// with the per-query form whenever the engines' structural limits do.
QueryContext MakeQueryContext(const KnowledgeBase& kb,
                              std::span<const logic::FormulaPtr> queries,
                              const InferenceOptions& options = {});

// Batch inference: answers many queries over one shared context.  Queries
// are deduplicated (hash-consing makes duplicates pointer-equal), and the
// engines reuse each other's per-(N, τ) work — for B queries on one KB the
// expensive world enumerations run once, not B times.  A query that
// introduces symbols beyond the KB's vocabulary is answered in its own
// context (sharing would let it shift the other queries' engine support
// limits), so every answer equals the sequential DegreeOfBelief call.
std::vector<Answer> DegreesOfBelief(const KnowledgeBase& kb,
                                    std::span<const logic::FormulaPtr> queries,
                                    const InferenceOptions& options = {});

// Textual batch form: parses each query; a parse failure yields a
// kUnknown answer carrying the parser message (it does not abort — batch
// callers handle per-query failures).
std::vector<Answer> DegreesOfBelief(const KnowledgeBase& kb,
                                    std::span<const std::string> queries,
                                    const InferenceOptions& options = {});

// True when the query mentions no predicate/function symbol beyond
// `vocabulary` — the condition under which answering through a shared
// KB-level context reproduces the per-query vocabulary exactly.  Used by
// the batch API above and by the service layer's snapshot routing
// (service/catalog.h).
bool QueryCoveredByVocabulary(const logic::Vocabulary& vocabulary,
                              const logic::FormulaPtr& query);

// Pr(φ | KB ∧ ψ): conditioning on additional evidence ψ.  By Proposition
// 5.2, when KB |∼rw ψ this equals Pr(φ | KB); in general it is the degree
// of belief after learning ψ.
Answer ConditionalDegreeOfBelief(const KnowledgeBase& kb,
                                 const logic::FormulaPtr& query,
                                 const logic::FormulaPtr& evidence,
                                 const InferenceOptions& options = {});

std::string StatusToString(Answer::Status status);

}  // namespace rwl

#endif  // RWL_CORE_INFERENCE_H_
