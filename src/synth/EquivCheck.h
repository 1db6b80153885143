//===- synth/EquivCheck.h - Bounded serial/parallel equivalence ----------===//
//
// The CEGIS backbone (paper Sect. 8): candidates are first screened
// against a corpus of concrete counterexamples (cheap), then checked
// symbolically — both programs are evaluated over arrays of symbolic
// elements for every segment shape within the bounds, the outputs are
// conjoined with a disequality, and unsatisfiability of every query
// establishes equivalence for the bound. Satisfying models become new
// corpus entries, pruning the remaining search space.
//
// One checker owns one SMT solver, and so one Z3 context, created on
// the first symbolic query and kept for the checker's lifetime. Each
// segment shape is checked in its own push/pop scope; the shape's terms
// are released afterwards, so memory does not grow with the number of
// shapes or candidates.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SYNTH_EQUIVCHECK_H
#define GRASSP_SYNTH_EQUIVCHECK_H

#include "lang/Program.h"
#include "support/Cancel.h"
#include "synth/ParallelPlan.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace grassp {
namespace smt {
class SmtSolver;
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

/// Counterexample-corpus + bounded-SMT equivalence checking for one
/// program.
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

  /// Bounded symbolic check. On Refuted, \p CexOut (if non-null) receives
  /// the refuting segments (also added to the corpus).
  Verdict verify(const ParallelPlan &Plan, const VerifyOptions &Opts,
                 Segments *CexOut = nullptr);

  size_t corpusSize() const { return Corpus.size(); }
  unsigned numSmtChecks() const { return SmtChecks; }
  /// Shapes whose incremental check came back Unknown and were checked
  /// again on a fresh solver (see verify()).
  unsigned numSmtFallbacks() const { return SmtFallbacks; }

private:
  struct CorpusEntry {
    Segments Segs;
    int64_t Expected;
  };

  void addEntry(Segments Segs);

  const lang::SerialProgram &Prog;
  std::vector<CorpusEntry> Corpus;
  std::unique_ptr<smt::SmtSolver> Solver; ///< Created by the first query.
  unsigned SmtChecks = 0;
  unsigned SmtFallbacks = 0;
};

} // namespace synth
} // namespace grassp

#endif // GRASSP_SYNTH_EQUIVCHECK_H
