//===- synth/EquivCheck.h - Serial/parallel equivalence ------------------===//
//
// The CEGIS backbone (paper Sect. 8): candidates are first screened
// against a corpus of concrete counterexamples (cheap), then checked
// symbolically — both programs are evaluated over arrays of symbolic
// elements for every segment shape within the bounds, the outputs are
// conjoined with a disequality, and unsatisfiability of every query
// establishes equivalence for the bound. Satisfying models become new
// corpus entries, pruning the remaining search space.
//
// Before the shapes, a no-prefix plan is tried by induction: with an
// invariant Inv of the states reachable from d0 in at least one step,
//   base  Inv(a)          => f(a, x)       = M(a, f(d0, x))
//   step  Inv(a) /\ Inv(b) => f(M(a, b), x) = M(a, f(b, x))
// prove fold(A ++ B) = M(fold A, fold B) for all non-empty A and B (by
// induction on B), hence the plan's left-to-right merge matches the
// serial fold on every segmentation.
//
// A cond-prefix summary plan is tried by a simulation of the serial fold
// by the worker's own fold. With merge1(c, w) the plan's one-worker merge
// step (PlanExecutor::merge1), w0 = runWorker({}), stepWorker the
// worker's transition, InvC an invariant of the states reachable from d0
// (d0 included) and InvW one of the worker results reachable from w0,
//   base  InvC(c)             => merge1(c, w0)              = c
//   step  InvC(c) /\ InvW(w)  => merge1(c, stepWorker(w, x)) =
//                                f(merge1(c, w), x)
// prove merge1(c, runWorker(B)) = fold(c, B) for every segment B (by
// induction on B). The merge threads a serial state from d0 through
// merge1, so it matches the serial fold on every segmentation.
//
// All queries are equalities of the whole state. Both invariants come
// from Houdini over candidate atoms, after dropping the atoms that fail
// on concretely sampled states or workers. The shapes run only when the
// induction does not prove the plan; they stay CEGIS's only source of
// counterexamples.
//
// One checker owns one SMT solver, and so one Z3 context, created on
// the first symbolic query and kept for the checker's lifetime. Each
// query is checked in its own push/pop scope; its terms are released
// afterwards, so memory does not grow with the number of shapes or
// candidates.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SYNTH_EQUIVCHECK_H
#define GRASSP_SYNTH_EQUIVCHECK_H

#include "lang/Program.h"
#include "support/Cancel.h"
#include "synth/ParallelPlan.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace grassp {
namespace smt {
class SmtSolver;
enum class SatResult;
} // namespace smt

namespace synth {

using Segments = std::vector<std::vector<int64_t>>;

/// Bounds of the symbolic check: all segment counts in
/// [MinSegments, MaxSegments] with each segment length in [1, MaxLen].
/// Segments are non-empty (the paper's file-per-segment data model).
struct VerifyOptions {
  unsigned MinSegments = 2;
  unsigned MaxSegments = 3;
  unsigned MaxLen = 3;
  unsigned SmtTimeoutMs = 30000;
  /// Fires -> the in-flight SMT query is interrupted and verify()
  /// returns Cancelled at its next cooperative point. A token deadline
  /// also clamps each query's SMT timeout to the remaining budget.
  CancelToken Token;
};

enum class Verdict { Equivalent, Refuted, Unknown, Cancelled };

/// How verify() settled a plan: by induction, or by the bounded shapes
/// together with why the induction did not settle it.
enum class ProofRoute {
  Induction,        ///< Base and step hold; no shape was checked.
  BoundedBase,      ///< Induction tried: the base case fails.
  BoundedStep,      ///< Induction tried: the step case fails.
  BoundedUnknown,   ///< Induction tried: a query gave up in its budget.
  BoundedCancelled, ///< Induction tried: the token fired.
  BoundedBag,       ///< Not tried: the state has a bag field.
  BoundedRefold,    ///< Not tried: the merge re-folds.
  BoundedPrefix,    ///< Not tried: a constant-prefix plan, or a
                    ///< cond-prefix plan that re-folds its prefixes.
};

/// Short name: "induction", "bounded:base", ..., "bounded:prefix".
const char *proofRouteName(ProofRoute R);

/// Counterexample-corpus, induction and bounded-SMT equivalence
/// checking for one program.
class EquivChecker {
public:
  explicit EquivChecker(const lang::SerialProgram &Prog);
  ~EquivChecker();

  /// Seeds the corpus with random and crafted segmented inputs.
  void seedCorpus(unsigned NumRandom, uint64_t Seed);

  /// Records a refuting input (typically an SMT model).
  void addCounterexample(const Segments &Segs);

  /// Fast concrete screen: does the plan match the serial program on
  /// every corpus entry?
  bool passesCorpus(const ParallelPlan &Plan) const;

  /// Symbolic check: proveByInduction(), then, unless that proved the
  /// plan, verifyBounded(). \p RouteOut (if non-null) receives the route.
  Verdict verify(const ParallelPlan &Plan, const VerifyOptions &Opts,
                 Segments *CexOut = nullptr, ProofRoute *RouteOut = nullptr);

  /// The induction alone (see the file comment), under the options'
  /// token and SMT budget. Induction means the plan is right for every
  /// segmentation, so verifyBounded() would call it Equivalent under any
  /// bounds. No-prefix and cond-prefix summary plans without bag state
  /// are tried; constant-prefix and re-folding cond-prefix plans are not.
  ProofRoute proveByInduction(const ParallelPlan &Plan,
                              const VerifyOptions &Opts);

  /// The bounded shapes alone. On Refuted, \p CexOut (if non-null)
  /// receives the refuting segments (also added to the corpus).
  Verdict verifyBounded(const ParallelPlan &Plan, const VerifyOptions &Opts,
                        Segments *CexOut = nullptr);

  size_t corpusSize() const { return Corpus.size(); }
  unsigned numSmtChecks() const { return SmtChecks; }
  /// Shapes whose incremental check came back Unknown and were checked
  /// again on a fresh solver (see verifyBounded()).
  unsigned numSmtFallbacks() const { return SmtFallbacks; }

private:
  struct CorpusEntry {
    Segments Segs;
    int64_t Expected;
  };

  void addEntry(Segments Segs);

  /// One induction or invariant query: Sat means \p Query has a model.
  /// A constant query needs no solver.
  smt::SatResult checkQuery(const ir::ExprRef &Query,
                            const VerifyOptions &Opts);

  /// Houdini over \p Atoms (over the field names) on the states
  /// reachable from d0, d0 itself included iff \p FromD0; nullopt when
  /// the token fired first.
  std::optional<std::vector<ir::ExprRef>>
  invariantOf(std::vector<ir::ExprRef> Atoms, bool FromD0,
              const VerifyOptions &Opts);

  /// Checks the base query, then the step query: Induction when both are
  /// unsatisfiable.
  ProofRoute settle(const ir::ExprRef &Base, const ir::ExprRef &Step,
                    const VerifyOptions &Opts);

  /// The simulation induction of a cond-prefix summary plan.
  ProofRoute proveCondPrefix(const ParallelPlan &Plan,
                             const VerifyOptions &Opts);

  const lang::SerialProgram &Prog;
  std::vector<CorpusEntry> Corpus;
  /// Atoms over the field names whose conjunction holds on every state
  /// reachable from d0 in at least one step (an atom whose query is
  /// Unknown is dropped). Plan-independent, so it is computed by the
  /// first induction and kept.
  std::optional<std::vector<ir::ExprRef>> Invariant;
  /// The same over every state reachable from d0, d0 included, with Bool
  /// atoms besides: what the carry of a cond-prefix merge satisfies.
  std::optional<std::vector<ir::ExprRef>> CarryInvariant;
  std::unique_ptr<smt::SmtSolver> Solver; ///< Created by the first query.
  unsigned SmtChecks = 0;
  unsigned SmtFallbacks = 0;
};

} // namespace synth
} // namespace grassp

#endif // GRASSP_SYNTH_EQUIVCHECK_H
