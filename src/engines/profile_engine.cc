#include "src/engines/profile_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/combinatorics/logmath.h"
#include "src/core/query_context.h"
#include "src/engines/world_cache.h"
#include "src/logic/classalg.h"
#include "src/logic/transform.h"
#include "src/semantics/compile.h"
#include "src/semantics/evaluator.h"

namespace rwl::engines {
namespace {

using logic::AtomSet;
using logic::ClassUniverse;
using logic::CompareOp;
using logic::Expr;
using logic::ExprPtr;
using logic::Formula;
using logic::FormulaPtr;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "rwl profile engine error: %s\n", message.c_str());
  std::abort();
}

// ---------------------------------------------------------------------------
// Constant placements.
// ---------------------------------------------------------------------------

// A placement: constants grouped into blocks of coinciding denotations, with
// an atom per block.
struct Placement {
  std::vector<int> constant_block;  // index: position in constants list
  std::vector<int> block_atom;      // per block
  std::vector<int> blocks_in_atom;  // d_a, per atom
  double log_extra = 0.0;           // filled per-profile (falling factorials)
};

// All set partitions of {0..m-1} as restricted-growth strings.
void EnumeratePartitions(int m, std::vector<std::vector<int>>* out) {
  std::vector<int> rgs(m, 0);
  // Standard RGS enumeration.
  std::vector<int> max_prefix(m, 0);
  int i = 0;
  if (m == 0) {
    out->push_back({});
    return;
  }
  while (true) {
    if (i == m) {
      out->push_back(rgs);
      --i;
      while (i >= 0) {
        int limit = (i == 0) ? 0 : max_prefix[i - 1] + 1;
        if (rgs[i] < limit) {
          ++rgs[i];
          max_prefix[i] = std::max(i == 0 ? 0 : max_prefix[i - 1], rgs[i]);
          ++i;
          break;
        }
        --i;
      }
      if (i < 0) break;
      continue;
    }
    rgs[i] = 0;
    max_prefix[i] = i == 0 ? 0 : max_prefix[i - 1];
    ++i;
  }
}

std::vector<Placement> EnumeratePlacements(int num_constants, int num_atoms) {
  std::vector<Placement> placements;
  std::vector<std::vector<int>> partitions;
  EnumeratePartitions(num_constants, &partitions);
  for (const auto& rgs : partitions) {
    int num_blocks = 0;
    for (int b : rgs) num_blocks = std::max(num_blocks, b + 1);
    if (num_constants == 0) num_blocks = 0;
    // All atom assignments for the blocks.
    std::vector<int> atom(num_blocks, 0);
    while (true) {
      Placement p;
      p.constant_block = rgs;
      p.block_atom = atom;
      p.blocks_in_atom.assign(num_atoms, 0);
      for (int a : atom) ++p.blocks_in_atom[a];
      placements.push_back(p);
      int j = 0;
      for (; j < num_blocks; ++j) {
        if (++atom[j] < num_atoms) break;
        atom[j] = 0;
      }
      if (j == num_blocks) break;
    }
    if (num_blocks == 0) break;  // single empty placement already emitted
  }
  return placements;
}

// ---------------------------------------------------------------------------
// Symbolic evaluation over a profile.
// ---------------------------------------------------------------------------

// A bound element: its atom and a unique identity.  Identities 0..B-1 are
// the constant blocks; identities >= B are pinned anonymous elements.
struct Elem {
  int atom = 0;
  int id = 0;
};

class ProfileEvaluator {
 public:
  ProfileEvaluator(const logic::Vocabulary& vocabulary,
                   const std::vector<int64_t>& atom_counts,
                   const Placement* placement,
                   const std::map<std::string, int>& constant_index,
                   const semantics::ToleranceVector& tolerances)
      : vocabulary_(vocabulary),
        atom_counts_(atom_counts),
        placement_(placement),
        constant_index_(constant_index),
        tolerances_(tolerances) {
    int num_atoms = static_cast<int>(atom_counts.size());
    fresh_in_atom_.assign(num_atoms, 0);
    num_blocks_ = 0;
    if (placement_ != nullptr) {
      for (int b : placement_->constant_block) {
        num_blocks_ = std::max(num_blocks_, b + 1);
      }
    }
    next_fresh_id_ = num_blocks_;
  }

  bool Eval(const FormulaPtr& f) { return EvalFormula(f); }

 private:
  struct ExprValue {
    double value = 0.0;
    bool defined = true;
  };

  int64_t PoolSize(int atom) const {
    int64_t named = placement_ != nullptr ? placement_->blocks_in_atom[atom] : 0;
    return atom_counts_[atom] - named;
  }

  Elem ElemOfConstant(const std::string& name) const {
    if (placement_ == nullptr) {
      Die("constant '" + name + "' in a constant-free evaluation");
    }
    auto it = constant_index_.find(name);
    if (it == constant_index_.end()) Die("unknown constant " + name);
    int block = placement_->constant_block[it->second];
    return Elem{placement_->block_atom[block], block};
  }

  Elem ElemOfTerm(const logic::TermPtr& t) const {
    if (t->is_variable()) {
      auto it = env_.find(t->name());
      if (it == env_.end()) Die("unbound variable " + t->name());
      return it->second;
    }
    if (!t->is_constant()) {
      Die("non-constant function in unary profile evaluation");
    }
    return ElemOfConstant(t->name());
  }

  bool AtomHolds(int atom, const std::string& predicate) const {
    auto sym = vocabulary_.FindPredicate(predicate);
    if (!sym.has_value()) Die("unknown predicate " + predicate);
    return (atom >> sym->id) & 1;
  }

  // Enumerates candidate bindings for a variable.  The callback receives the
  // element and the number of concrete domain elements it represents; it
  // returns false to stop the enumeration early.
  template <typename Callback>
  void ForEachCandidate(const Callback& cb) {
    // Named blocks.
    if (placement_ != nullptr) {
      for (int b = 0; b < num_blocks_; ++b) {
        if (!cb(Elem{placement_->block_atom[b], b}, int64_t{1}, false)) return;
      }
    }
    // Pinned anonymous elements (currently bound fresh elements).
    for (const Elem& e : fresh_stack_) {
      if (!cb(e, int64_t{1}, false)) return;
    }
    // A fresh element from each nonempty anonymous pool.
    int num_atoms = static_cast<int>(atom_counts_.size());
    for (int a = 0; a < num_atoms; ++a) {
      int64_t remaining = PoolSize(a) - fresh_in_atom_[a];
      if (remaining > 0) {
        if (!cb(Elem{a, -1}, remaining, true)) return;
      }
    }
  }

  // Binds `var` to a candidate for the duration of `body`.
  template <typename Body>
  auto WithBinding(const std::string& var, const Elem& elem, bool is_fresh,
                   const Body& body) {
    Elem bound = elem;
    if (is_fresh) {
      bound.id = next_fresh_id_++;
      fresh_stack_.push_back(bound);
      ++fresh_in_atom_[bound.atom];
    }
    auto saved = env_.find(var) != env_.end()
                     ? std::optional<Elem>(env_[var])
                     : std::nullopt;
    env_[var] = bound;
    auto result = body();
    if (saved.has_value()) {
      env_[var] = *saved;
    } else {
      env_.erase(var);
    }
    if (is_fresh) {
      --fresh_in_atom_[bound.atom];
      fresh_stack_.pop_back();
      --next_fresh_id_;
    }
    return result;
  }

  bool EvalQuantifier(const FormulaPtr& f) {
    bool is_forall = f->kind() == Formula::Kind::kForAll;
    bool result = is_forall;
    ForEachCandidate([&](const Elem& e, int64_t /*ways*/, bool fresh) {
      bool holds = WithBinding(f->var(), e, fresh,
                               [&] { return EvalFormula(f->body()); });
      if (is_forall && !holds) {
        result = false;
        return false;
      }
      if (!is_forall && holds) {
        result = true;
        return false;
      }
      return true;
    });
    return result;
  }

  // Counts assignments of vars[idx..] satisfying cond (or all, when cond is
  // null), and those satisfying body ∧ cond.
  struct Counts {
    int64_t body = 0;
    int64_t cond = 0;
  };

  Counts CountTuples(const std::vector<std::string>& vars, size_t idx,
                     const FormulaPtr& body, const FormulaPtr& cond) {
    if (idx == vars.size()) {
      Counts c;
      bool cond_holds = cond == nullptr || EvalFormula(cond);
      if (!cond_holds) return c;
      c.cond = 1;
      if (EvalFormula(body)) c.body = 1;
      return c;
    }
    Counts total;
    ForEachCandidate([&](const Elem& e, int64_t ways, bool fresh) {
      Counts sub = WithBinding(vars[idx], e, fresh, [&] {
        return CountTuples(vars, idx + 1, body, cond);
      });
      total.body += ways * sub.body;
      total.cond += ways * sub.cond;
      return true;
    });
    return total;
  }

  ExprValue EvalExpr(const ExprPtr& e) {
    switch (e->kind()) {
      case Expr::Kind::kConstant:
        return {e->value(), true};
      case Expr::Kind::kProportion: {
        Counts c = CountTuples(e->vars(), 0, e->body(), nullptr);
        double total = 1.0;
        int64_t n = 0;
        for (int64_t cnt : atom_counts_) n += cnt;
        for (size_t i = 0; i < e->vars().size(); ++i) {
          total *= static_cast<double>(n);
        }
        return {static_cast<double>(c.body) / total, true};
      }
      case Expr::Kind::kConditional: {
        Counts c = CountTuples(e->vars(), 0, e->body(), e->cond());
        if (c.cond == 0) return {0.0, false};
        return {static_cast<double>(c.body) / static_cast<double>(c.cond),
                true};
      }
      case Expr::Kind::kAdd:
      case Expr::Kind::kSub:
      case Expr::Kind::kMul: {
        ExprValue lhs = EvalExpr(e->lhs());
        ExprValue rhs = EvalExpr(e->rhs());
        ExprValue out;
        out.defined = lhs.defined && rhs.defined;
        switch (e->kind()) {
          case Expr::Kind::kAdd:
            out.value = lhs.value + rhs.value;
            break;
          case Expr::Kind::kSub:
            out.value = lhs.value - rhs.value;
            break;
          default:
            out.value = lhs.value * rhs.value;
            break;
        }
        return out;
      }
    }
    Die("unreachable expr kind");
  }

  bool EvalFormula(const FormulaPtr& f) {
    switch (f->kind()) {
      case Formula::Kind::kTrue:
        return true;
      case Formula::Kind::kFalse:
        return false;
      case Formula::Kind::kAtom: {
        if (f->terms().size() != 1) {
          Die("non-unary atom in profile evaluation: " + f->predicate());
        }
        Elem e = ElemOfTerm(f->terms()[0]);
        return AtomHolds(e.atom, f->predicate());
      }
      case Formula::Kind::kEqual: {
        Elem a = ElemOfTerm(f->terms()[0]);
        Elem b = ElemOfTerm(f->terms()[1]);
        return a.id == b.id;
      }
      case Formula::Kind::kNot:
        return !EvalFormula(f->body());
      case Formula::Kind::kAnd:
        return EvalFormula(f->left()) && EvalFormula(f->right());
      case Formula::Kind::kOr:
        return EvalFormula(f->left()) || EvalFormula(f->right());
      case Formula::Kind::kImplies:
        return !EvalFormula(f->left()) || EvalFormula(f->right());
      case Formula::Kind::kIff:
        return EvalFormula(f->left()) == EvalFormula(f->right());
      case Formula::Kind::kForAll:
      case Formula::Kind::kExists:
        return EvalQuantifier(f);
      case Formula::Kind::kCompare: {
        ExprValue lhs = EvalExpr(f->expr_left());
        ExprValue rhs = EvalExpr(f->expr_right());
        if (!lhs.defined || !rhs.defined) return true;  // 0/0 convention
        double tau = tolerances_.Get(f->tolerance_index());
        return semantics::CompareValues(lhs.value, f->compare_op(), rhs.value,
                                        tau);
      }
    }
    Die("unreachable formula kind");
  }

  const logic::Vocabulary& vocabulary_;
  const std::vector<int64_t>& atom_counts_;
  const Placement* placement_;
  const std::map<std::string, int>& constant_index_;
  const semantics::ToleranceVector& tolerances_;

  std::map<std::string, Elem> env_;
  std::vector<Elem> fresh_stack_;
  std::vector<int> fresh_in_atom_;
  int num_blocks_ = 0;
  int next_fresh_id_ = 0;
};

// ---------------------------------------------------------------------------
// DFS pruning constraints.
// ---------------------------------------------------------------------------

// Conservative linear bound extracted from a proportion conjunct:
//   lo · Σ_{a∈cond} n_a  ≤  Σ_{a∈body} n_a  ≤  hi · Σ_{a∈cond} n_a
// where body ⊆ cond.  (For unconditional proportions cond is every atom.)
struct PruneConstraint {
  AtomSet body;
  AtomSet cond;
  double lo = 0.0;
  double hi = 1.0;
};

// Attempts to turn a KB conjunct into a pruning constraint over the universe.
std::optional<PruneConstraint> ExtractConstraint(
    const ClassUniverse& universe, const FormulaPtr& conjunct,
    const semantics::ToleranceVector& tolerances) {
  if (conjunct->kind() != Formula::Kind::kCompare) return std::nullopt;
  // Require: proportion-expression op constant  (or constant op proportion).
  ExprPtr prop = conjunct->expr_left();
  ExprPtr constant = conjunct->expr_right();
  CompareOp op = conjunct->compare_op();
  bool flipped = false;
  if (prop->kind() == Expr::Kind::kConstant) {
    std::swap(prop, constant);
    flipped = true;
  }
  if (constant->kind() != Expr::Kind::kConstant) return std::nullopt;
  if (prop->kind() != Expr::Kind::kProportion &&
      prop->kind() != Expr::Kind::kConditional) {
    return std::nullopt;
  }
  if (prop->vars().size() != 1) return std::nullopt;
  logic::TermPtr subject = logic::Term::Variable(prop->vars()[0]);
  auto body = CompileClass(universe, prop->body(), subject);
  if (!body) return std::nullopt;
  AtomSet cond = AtomSet::All(universe);
  if (prop->kind() == Expr::Kind::kConditional) {
    auto compiled = CompileClass(universe, prop->cond(), subject);
    if (!compiled) return std::nullopt;
    cond = *compiled;
  }

  double v = constant->value();
  double tau = logic::IsApproximate(op)
                   ? tolerances.Get(conjunct->tolerance_index())
                   : 0.0;
  PruneConstraint out;
  out.body = body->Intersect(cond);
  out.cond = cond;
  switch (op) {
    case CompareOp::kApproxEq:
    case CompareOp::kEq:
      out.lo = v - tau;
      out.hi = v + tau;
      break;
    case CompareOp::kApproxLeq:
    case CompareOp::kLeq:
      // prop ≤ v (+τ); flipped: v ≤ prop (+τ).
      if (!flipped) {
        out.lo = 0.0;
        out.hi = v + tau;
      } else {
        out.lo = v - tau;
        out.hi = 1.0;
      }
      break;
    case CompareOp::kApproxGeq:
    case CompareOp::kGeq:
      if (!flipped) {
        out.lo = v - tau;
        out.hi = 1.0;
      } else {
        out.lo = 0.0;
        out.hi = v + tau;
      }
      break;
  }
  out.lo = std::max(0.0, out.lo);
  out.hi = std::min(1.0, out.hi);
  return out;
}

// ---------------------------------------------------------------------------
// Cached world lists (context path).
// ---------------------------------------------------------------------------

// The satisfying worlds of one (N, ⃗τ) sweep point, grouped as the DFS
// emits them: a leaf is an atom-count vector that passed the constant-free
// KB, an entry is a (leaf, placement) pair that also passed the
// constant-dependent KB, carrying the world-count log-weight.  Entries are
// stored in DFS emission order so a replay accumulates the identical
// LogSumExp sequence.
struct ProfileWorldList {
  // Record-and-replay protocol state (see engines/world_cache.h).
  internal::WorldCacheState state = internal::WorldCacheState::kSeenOnce;
  // False: recording overflowed the size cap (maps to kTooBig).
  bool valid = false;
  std::vector<std::vector<int64_t>> leaf_counts;
  struct Entry {
    int32_t leaf = 0;
    int32_t placement = 0;
    double log_weight = 0.0;
  };
  std::vector<Entry> entries;
  std::vector<Placement> placements;
  // The ⃗τ the list was recorded at (part of the blob key, but carried here
  // too so PatchProfileWorlds can re-run the leaf evaluator without
  // parsing the key back).
  semantics::ToleranceVector tolerances;

  size_t ByteSize() const {
    size_t bytes = entries.size() * sizeof(Entry);
    for (const auto& counts : leaf_counts) {
      bytes += counts.size() * sizeof(int64_t);
    }
    for (const auto& p : placements) {
      bytes += (p.constant_block.size() + p.block_atom.size() +
                p.blocks_in_atom.size()) *
               sizeof(int);
    }
    return bytes;
  }
};

// Memory cap for one recorded sweep point (entries dominate).
constexpr size_t kMaxRecordedEntries = 1u << 20;
constexpr size_t kMaxRecordedLeaves = 1u << 19;

// The full Pr_N^τ computation (the seed's DegreeAt), with an optional
// recording sink: when `record` is non-null, every world that enters the
// denominator is appended.  Recording never changes the result.
FiniteResult ComputeSweepPoint(const ProfileEngine::Options& options,
                               const logic::Vocabulary& vocabulary,
                               const FormulaPtr& kb_free,
                               const FormulaPtr& kb_dep,
                               const FormulaPtr& query, int domain_size,
                               const semantics::ToleranceVector& tolerances,
                               ProfileWorldList* record) {
  const int num_atoms = 1 << vocabulary.num_predicates();
  const int64_t n_total = domain_size;

  // Predicate names in vocabulary id order define the atom bits.
  std::vector<std::string> predicate_names;
  for (const auto& p : vocabulary.predicates()) {
    predicate_names.push_back(p.name);
  }
  ClassUniverse universe(predicate_names);

  // Constants.
  std::map<std::string, int> constant_index;
  {
    int i = 0;
    for (const auto& c : vocabulary.Constants()) constant_index[c.name] = i++;
  }
  const int num_constants = static_cast<int>(constant_index.size());
  std::vector<Placement> placements =
      EnumeratePlacements(num_constants, num_atoms);

  // Pruning constraints (from constant-free conjuncts only) and taxonomy
  // zero-atoms.
  std::vector<PruneConstraint> constraints;
  logic::Taxonomy taxonomy(universe);
  for (const auto& conjunct : logic::Conjuncts(kb_free)) {
    if (taxonomy.Absorb(conjunct)) continue;
    auto c = ExtractConstraint(universe, conjunct, tolerances);
    if (c.has_value()) constraints.push_back(*c);
  }
  const AtomSet& allowed = taxonomy.allowed();

  // DFS over atom-count vectors.
  std::vector<int64_t> counts(num_atoms, 0);
  LogSumExp denominator;
  LogSumExp numerator;
  uint64_t leaves = 0;
  bool exhausted = false;
  bool record_overflow = false;

  // Partial sums per constraint: body and cond over assigned atoms.
  const int num_constraints = static_cast<int>(constraints.size());
  std::vector<int64_t> sum_body(num_constraints, 0);
  std::vector<int64_t> sum_cond(num_constraints, 0);

  // Safe feasibility bounds: given assigned partial sums and remaining
  // capacity, constraint j is provably violated when
  //   lo · cond_min > body_max   or   body_min > hi · cond_max.
  // The per-suffix structure (which open atoms lie in body/cond) depends
  // only on the atom index, so it is precomputed by a backward scan.
  struct SuffixInfo {
    bool any_open = false;       // some allowed atom at index ≥ a
    bool body_open = false;      // some allowed atom ≥ a lies in body
    bool cond_open = false;
    bool all_in_body = true;     // every allowed atom ≥ a lies in body
    bool all_in_cond = true;
  };
  // suffix[j][a] summarizes atoms a..num_atoms-1 for constraint j.
  std::vector<std::vector<SuffixInfo>> suffix(
      num_constraints, std::vector<SuffixInfo>(num_atoms + 1));
  for (int j = 0; j < num_constraints; ++j) {
    const PruneConstraint& c = constraints[j];
    for (int a = num_atoms - 1; a >= 0; --a) {
      SuffixInfo info = suffix[j][a + 1];
      if (allowed.Get(a)) {
        bool in_body = c.body.Get(a);
        bool in_cond = c.cond.Get(a);
        info.any_open = true;
        info.body_open = info.body_open || in_body;
        info.cond_open = info.cond_open || in_cond;
        info.all_in_body = info.all_in_body && in_body;
        info.all_in_cond = info.all_in_cond && in_cond;
      }
      suffix[j][a] = info;
    }
  }

  auto infeasible = [&](int next_atom, int64_t remaining) {
    for (int j = 0; j < num_constraints; ++j) {
      const PruneConstraint& c = constraints[j];
      const SuffixInfo& info = suffix[j][next_atom];
      int64_t body_max = sum_body[j] + (info.body_open ? remaining : 0);
      int64_t body_min =
          sum_body[j] +
          ((info.any_open && info.all_in_body) ? remaining : 0);
      int64_t cond_max = sum_cond[j] + (info.cond_open ? remaining : 0);
      int64_t cond_min =
          sum_cond[j] +
          ((info.any_open && info.all_in_cond) ? remaining : 0);
      if (c.lo * static_cast<double>(cond_min) >
          static_cast<double>(body_max) + 1e-9) {
        return true;
      }
      if (static_cast<double>(body_min) >
          c.hi * static_cast<double>(cond_max) + 1e-9) {
        return true;
      }
    }
    return false;
  };

  const int num_predicates = vocabulary.num_predicates();
  auto process_leaf = [&]() {
    ++leaves;
    if (leaves > options.max_leaves) {
      exhausted = true;
      return;
    }
    double log_multinomial = LogMultinomial(n_total, counts);
    if (log_multinomial == kNegInf) return;
    if (options.prior == Prior::kRandomPropensities) {
      // Marginal probability of a world under per-predicate uniform
      // propensities: Π_i c_i!(N-c_i)!/(N+1)!, constant across the worlds
      // of one profile (c_i depends only on ⃗n).
      for (int i = 0; i < num_predicates; ++i) {
        int64_t c_i = 0;
        for (int a = 0; a < num_atoms; ++a) {
          if ((a >> i) & 1) c_i += counts[a];
        }
        log_multinomial += LogFactorial(c_i) + LogFactorial(n_total - c_i) -
                           LogFactorial(n_total + 1);
      }
    }

    // Constant-free part: once per profile.
    {
      ProfileEvaluator eval(vocabulary, counts, nullptr, constant_index,
                            tolerances);
      if (!eval.Eval(kb_free)) return;
    }
    int32_t recorded_leaf = -1;
    for (size_t pi = 0; pi < placements.size(); ++pi) {
      const Placement& placement = placements[pi];
      // Block feasibility: enough elements in each atom.
      double log_falling = 0.0;
      bool feasible = true;
      for (int a = 0; a < num_atoms; ++a) {
        int d = placement.blocks_in_atom[a];
        if (d == 0) continue;
        if (counts[a] < d) {
          feasible = false;
          break;
        }
        log_falling += LogFallingFactorial(counts[a], d);
      }
      if (!feasible) continue;

      ProfileEvaluator eval(vocabulary, counts, &placement, constant_index,
                            tolerances);
      if (!eval.Eval(kb_dep)) continue;
      double log_weight = log_multinomial + log_falling;
      denominator.Add(log_weight);
      if (record != nullptr && !record_overflow) {
        if (recorded_leaf < 0) {
          if (record->leaf_counts.size() >= kMaxRecordedLeaves) {
            record_overflow = true;
          } else {
            recorded_leaf = static_cast<int32_t>(record->leaf_counts.size());
            record->leaf_counts.push_back(counts);
          }
        }
        if (!record_overflow) {
          if (record->entries.size() >= kMaxRecordedEntries) {
            record_overflow = true;
          } else {
            record->entries.push_back(ProfileWorldList::Entry{
                recorded_leaf, static_cast<int32_t>(pi), log_weight});
          }
        }
      }
      if (eval.Eval(query)) numerator.Add(log_weight);
    }
  };

  // Recursive DFS written iteratively would obscure the logic; recursion
  // depth equals num_atoms (≤ max_atoms), which is safe.
  std::function<void(int, int64_t)> dfs = [&](int atom, int64_t remaining) {
    if (exhausted) return;
    if (atom == num_atoms - 1) {
      // Last atom takes the remainder.
      if (!allowed.Get(atom) && remaining > 0) return;
      counts[atom] = remaining;
      for (int j = 0; j < num_constraints; ++j) {
        if (constraints[j].body.Get(atom)) sum_body[j] += remaining;
        if (constraints[j].cond.Get(atom)) sum_cond[j] += remaining;
      }
      bool ok = true;
      for (int j = 0; j < num_constraints && ok; ++j) {
        const PruneConstraint& c = constraints[j];
        double body = static_cast<double>(sum_body[j]);
        double cond = static_cast<double>(sum_cond[j]);
        if (c.lo * cond > body + 1e-9 || body > c.hi * cond + 1e-9) ok = false;
      }
      if (ok) process_leaf();
      for (int j = 0; j < num_constraints; ++j) {
        if (constraints[j].body.Get(atom)) sum_body[j] -= remaining;
        if (constraints[j].cond.Get(atom)) sum_cond[j] -= remaining;
      }
      counts[atom] = 0;
      return;
    }
    int64_t max_here = allowed.Get(atom) ? remaining : 0;
    for (int64_t value = 0; value <= max_here; ++value) {
      counts[atom] = value;
      for (int j = 0; j < num_constraints; ++j) {
        if (constraints[j].body.Get(atom)) sum_body[j] += value;
        if (constraints[j].cond.Get(atom)) sum_cond[j] += value;
      }
      if (!infeasible(atom + 1, remaining - value)) {
        dfs(atom + 1, remaining - value);
      }
      for (int j = 0; j < num_constraints; ++j) {
        if (constraints[j].body.Get(atom)) sum_body[j] -= value;
        if (constraints[j].cond.Get(atom)) sum_cond[j] -= value;
      }
      if (exhausted) break;
    }
    counts[atom] = 0;
  };

  if (num_atoms == 1) {
    counts[0] = n_total;
    if (allowed.Get(0) || n_total == 0) process_leaf();
  } else {
    dfs(0, n_total);
  }

  if (record != nullptr) {
    record->valid = !record_overflow && !exhausted;
    if (record->valid) {
      record->placements = std::move(placements);
      record->tolerances = tolerances;
    } else {
      record->leaf_counts.clear();
      record->entries.clear();
    }
  }

  FiniteResult result;
  if (exhausted) {
    result.exhausted = true;
    return result;
  }
  if (denominator.IsZero()) return result;
  result.well_defined = true;
  result.log_numerator = numerator.Value();
  result.log_denominator = denominator.Value();
  result.probability =
      numerator.IsZero()
          ? 0.0
          : std::exp(numerator.Value() - denominator.Value());
  return result;
}

// Replays a recorded world list for a new query: one evaluation per
// surviving world, log-weights accumulated in recorded (= DFS) order.
FiniteResult ReplayWorldList(const logic::Vocabulary& vocabulary,
                             const ProfileWorldList& worlds,
                             const FormulaPtr& query,
                             const semantics::ToleranceVector& tolerances) {
  std::map<std::string, int> constant_index;
  {
    int i = 0;
    for (const auto& c : vocabulary.Constants()) constant_index[c.name] = i++;
  }
  LogSumExp denominator;
  LogSumExp numerator;
  for (const auto& entry : worlds.entries) {
    denominator.Add(entry.log_weight);
    ProfileEvaluator eval(vocabulary, worlds.leaf_counts[entry.leaf],
                          &worlds.placements[entry.placement], constant_index,
                          tolerances);
    if (eval.Eval(query)) numerator.Add(entry.log_weight);
  }
  FiniteResult result;
  if (denominator.IsZero()) return result;
  result.well_defined = true;
  result.log_numerator = numerator.Value();
  result.log_denominator = denominator.Value();
  result.probability =
      numerator.IsZero()
          ? 0.0
          : std::exp(numerator.Value() - denominator.Value());
  return result;
}

}  // namespace

std::shared_ptr<const void> PatchProfileWorlds(
    const std::shared_ptr<const void>& blob,
    const logic::Vocabulary& vocabulary,
    const std::vector<logic::FormulaPtr>& appended, size_t* bytes_out) {
  auto worlds = std::static_pointer_cast<const ProfileWorldList>(blob);
  if (worlds == nullptr ||
      worlds->state != internal::WorldCacheState::kRecorded ||
      !worlds->valid) {
    return nullptr;
  }
  // Split the appended conjuncts the way ComputeSweepPoint splits the KB:
  // constant-free conjuncts gate a whole leaf (evaluated placement-free),
  // constant-dependent ones gate each (leaf, placement) entry.  The
  // evaluations are exactly the ones a fresh sweep of the new KB would
  // run, so survivors — in unchanged order, with unchanged log-weights —
  // replay bit-identically to a fresh recording.
  std::vector<FormulaPtr> appended_free;
  std::vector<FormulaPtr> appended_dep;
  for (const auto& conjunct : appended) {
    (logic::ConstantsOf(conjunct).empty() ? appended_free : appended_dep)
        .push_back(conjunct);
  }
  std::map<std::string, int> constant_index;
  {
    int i = 0;
    for (const auto& c : vocabulary.Constants()) constant_index[c.name] = i++;
  }
  auto patched = std::make_shared<ProfileWorldList>();
  patched->state = internal::WorldCacheState::kRecorded;
  patched->valid = true;
  patched->leaf_counts = worlds->leaf_counts;
  patched->placements = worlds->placements;
  patched->tolerances = worlds->tolerances;
  patched->entries.reserve(worlds->entries.size());
  // Per-leaf memo of the constant-free verdict (-1 unknown, else 0/1):
  // consecutive entries share leaves, and the fresh sweep, too, evaluates
  // the constant-free part once per leaf.
  std::vector<int8_t> leaf_pass(worlds->leaf_counts.size(), -1);
  for (const auto& entry : worlds->entries) {
    if (!appended_free.empty()) {
      int8_t& verdict = leaf_pass[entry.leaf];
      if (verdict < 0) {
        ProfileEvaluator eval(vocabulary, worlds->leaf_counts[entry.leaf],
                              nullptr, constant_index, worlds->tolerances);
        verdict = 1;
        for (const auto& conjunct : appended_free) {
          if (!eval.Eval(conjunct)) {
            verdict = 0;
            break;
          }
        }
      }
      if (verdict == 0) continue;
    }
    if (!appended_dep.empty()) {
      ProfileEvaluator eval(vocabulary, worlds->leaf_counts[entry.leaf],
                            &worlds->placements[entry.placement],
                            constant_index, worlds->tolerances);
      bool pass = true;
      for (const auto& conjunct : appended_dep) {
        if (!eval.Eval(conjunct)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
    }
    patched->entries.push_back(entry);
  }
  if (bytes_out != nullptr) *bytes_out = patched->ByteSize();
  return patched;
}

bool ProfileEngine::Supports(const QueryContext& ctx,
                             const logic::FormulaPtr& /*query*/,
                             int domain_size) const {
  if (domain_size <= 0) return false;
  const logic::Vocabulary& vocabulary = ctx.vocabulary();
  if (!vocabulary.IsUnaryRelational()) return false;
  int k = vocabulary.num_predicates();
  if (k > 30 || (1 << k) > options_.max_atoms) return false;
  if (static_cast<int>(vocabulary.Constants().size()) >
      options_.max_constants) {
    return false;
  }
  // Cost heuristic: the raw profile count C(N+A-1, A-1) bounds the DFS;
  // constraint pruning typically buys two to three orders of magnitude, so
  // refuse instances more than ~1000× over the leaf budget rather than
  // burn the budget discovering they are hopeless.
  double log_raw = LogBinomial(domain_size + (1 << k) - 1, (1 << k) - 1);
  double log_cap = std::log(static_cast<double>(options_.max_leaves)) +
                   std::log(1000.0);
  return log_raw <= log_cap;
}

CostEstimate ProfileEngine::EstimateCost(const QueryContext& ctx,
                                         const logic::FormulaPtr& query,
                                         int domain_size) const {
  CostEstimate cost;
  const logic::Vocabulary& vocabulary = ctx.vocabulary();
  const int k = std::min(vocabulary.num_predicates(), 30);
  const double atoms = std::exp2(static_cast<double>(k));
  const double log_raw = LogBinomial(
      domain_size + (1 << k) - 1, (1 << k) - 1);
  // The DFS aborts at the leaf budget, so predicted leaves are capped
  // there; constraint pruning typically lands well below the raw count,
  // making this a (useful) overestimate.
  const double leaves =
      std::min(std::exp(std::min(log_raw, 60.0 * 0.6931471805599453)),
               static_cast<double>(options_.max_leaves));
  const double num_constants =
      static_cast<double>(vocabulary.Constants().size());
  const double placements =
      std::min(std::pow(atoms, num_constants), 1e6);
  const double length = ApproximateProgramLength(ctx, ctx.kb()) +
                        ApproximateProgramLength(ctx, query);
  // Profile-leaf evaluation works over element classes, not N elements —
  // per-leaf cost scales with the program length alone.
  cost.work = leaves * std::max(placements, 1.0) * length * 0.25;
  cost.error = 0.0;  // exact at each (N, τ) point
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%.3g profile leaves x %.0f placements x length %.0f",
                leaves, std::max(placements, 1.0), length);
  cost.basis = buf;
  return cost;
}

std::string ProfileEngine::CacheSalt() const {
  std::string salt = "leaves=" + std::to_string(options_.max_leaves);
  salt += ";atoms=" + std::to_string(options_.max_atoms);
  salt += ";consts=" + std::to_string(options_.max_constants);
  salt += ";prior=";
  salt += options_.prior == Prior::kUniformWorlds ? "worlds" : "propensities";
  return salt;
}

FiniteResult ProfileEngine::DegreeAtInContext(
    QueryContext& ctx, const logic::FormulaPtr& query, int domain_size,
    const semantics::ToleranceVector& tolerances) const {
  if (!ctx.caching_enabled()) {
    // Constant-free conjuncts evaluate once per profile, the rest once per
    // placement; the same SplitByConstants feeds QueryContext::kb_split.
    logic::ConstantSplit split = logic::SplitByConstants(ctx.kb());
    return ComputeSweepPoint(options_, ctx.vocabulary(), split.constant_free,
                             split.constant_dependent, query, domain_size,
                             tolerances, nullptr);
  }
  const QueryContext::KbSplit& split = ctx.kb_split();
  std::string blob_key = "profile.worlds|" + CacheSalt() + "|" +
                         std::to_string(domain_size) + "|" +
                         tolerances.CacheKey();
  return internal::LazyRecordReplay<ProfileWorldList>(
      ctx, blob_key,
      [&](ProfileWorldList* record) {
        return ComputeSweepPoint(options_, ctx.vocabulary(),
                                 split.constant_free,
                                 split.constant_dependent, query,
                                 domain_size, tolerances, record);
      },
      [&](const ProfileWorldList& worlds) {
        return ReplayWorldList(ctx.vocabulary(), worlds, query, tolerances);
      });
}

}  // namespace rwl::engines
