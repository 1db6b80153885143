//===- synth/EquivCheck.cpp ------------------------------------------------=//

#include "synth/EquivCheck.h"

#include "lang/Interp.h"
#include "smt/Solver.h"
#include "support/Random.h"
#include "synth/PlanEval.h"

#include <algorithm>

using namespace grassp::ir;

namespace grassp {
namespace synth {

EquivChecker::EquivChecker(const lang::SerialProgram &Prog) : Prog(Prog) {}
EquivChecker::~EquivChecker() = default;

void EquivChecker::addEntry(Segments Segs) {
  CorpusEntry E;
  E.Expected = lang::runSerialSegmented(Prog, Segs);
  E.Segs = std::move(Segs);
  Corpus.push_back(std::move(E));
}

void EquivChecker::seedCorpus(unsigned NumRandom, uint64_t Seed) {
  Rng R(Seed);
  std::vector<int64_t> Reps = Prog.representativeInputs();

  auto RandomSegs = [&](bool FromReps) {
    unsigned M = static_cast<unsigned>(R.range(1, 4));
    Segments Segs(M);
    for (auto &S : Segs) {
      unsigned Len = static_cast<unsigned>(R.range(1, 4));
      S = FromReps ? randomFromAlphabet(R, Reps, Len)
                   : randomInRange(R, Prog.GenLo, Prog.GenHi, Len);
    }
    return Segs;
  };

  for (unsigned I = 0; I != NumRandom; ++I)
    addEntry(RandomSegs(/*FromReps=*/I % 2 == 0));

  // Crafted entries that exercise boundary-sensitive behaviors: constant
  // streams, sorted streams, and rep-alternations — these give the
  // corpus positive instances of predicates like "all equal"/"is sorted"
  // that random data essentially never produces.
  for (unsigned Trial = 0; Trial != 8; ++Trial) {
    int64_t C = Reps[R.next() % Reps.size()];
    Segments Const(2 + Trial % 2);
    for (auto &S : Const)
      S.assign(1 + R.next() % 3, C);
    addEntry(std::move(Const));

    Segments Sorted(2);
    int64_t Base = R.range(-5, 5);
    for (auto &S : Sorted) {
      unsigned Len = 1 + R.next() % 3;
      for (unsigned K = 0; K != Len; ++K) {
        S.push_back(Base);
        Base += R.range(0, 2);
      }
    }
    addEntry(std::move(Sorted));

    Segments Alt(2);
    int64_t Bit = static_cast<int64_t>(Trial % 2);
    for (auto &S : Alt) {
      unsigned Len = 1 + R.next() % 4;
      for (unsigned K = 0; K != Len; ++K) {
        S.push_back(Bit);
        Bit = 1 - Bit;
      }
    }
    addEntry(std::move(Alt));
  }
}

void EquivChecker::addCounterexample(const Segments &Segs) {
  addEntry(Segs);
}

bool EquivChecker::passesCorpus(const ParallelPlan &Plan) const {
  for (const CorpusEntry &E : Corpus)
    if (runPlanConcrete(Prog, Plan, E.Segs) != E.Expected)
      return false;
  return true;
}

Verdict EquivChecker::verify(const ParallelPlan &Plan,
                             const VerifyOptions &Opts, Segments *CexOut) {
  // Enumerate segment shapes, cheapest first.
  std::vector<std::vector<unsigned>> Shapes;
  for (unsigned M = Opts.MinSegments; M <= Opts.MaxSegments; ++M) {
    std::vector<unsigned> Lens(M, 1);
    for (;;) {
      Shapes.push_back(Lens);
      size_t I = 0;
      for (; I != M; ++I) {
        if (++Lens[I] <= Opts.MaxLen)
          break;
        Lens[I] = 1;
      }
      if (I == M)
        break;
    }
  }
  std::stable_sort(Shapes.begin(), Shapes.end(),
                   [](const std::vector<unsigned> &A,
                      const std::vector<unsigned> &B) {
                     unsigned SA = 0, SB = 0;
                     for (unsigned X : A)
                       SA += X;
                     for (unsigned X : B)
                       SB += X;
                     return SA < SB;
                   });

  for (const std::vector<unsigned> &Shape : Shapes) {
    if (Opts.Token.cancelled())
      return Verdict::Cancelled;
    ir::SymbolicPolicy P;
    // Fresh element variables.
    std::vector<std::vector<ExprRef>> SymSegs;
    std::vector<std::string> Names;
    for (size_t I = 0; I != Shape.size(); ++I) {
      std::vector<ExprRef> Seg;
      for (unsigned J = 0; J != Shape[I]; ++J) {
        std::string Name =
            "e_" + std::to_string(I) + "_" + std::to_string(J);
        Names.push_back(Name);
        Seg.push_back(var(Name, TypeKind::Int));
      }
      SymSegs.push_back(std::move(Seg));
    }

    // Serial output over the concatenation.
    lang::StateVec<ir::SymbolicPolicy> St = lang::initialState(Prog, P);
    for (const auto &Seg : SymSegs)
      St = lang::foldSegment(Prog, std::move(St), Seg, P);
    ExprRef SerialOut = lang::outputOf(Prog, St, P);

    // Parallel output.
    PlanExecutor<ir::SymbolicPolicy> Exec(Prog, Plan, P);
    ExprRef PlanOut = Exec.run(SymSegs);

    ExprRef Diff = ne(SerialOut, PlanOut);
    if (Diff->isConstBool()) {
      if (!Diff->boolValue())
        continue; // syntactically identical: trivially equivalent shape.
    }

    if (!Solver)
      Solver = std::make_unique<smt::SmtSolver>();
    Solver->push();
    Solver->add(Diff);
    ++SmtChecks;
    smt::SatResult R = Solver->check(Opts.SmtTimeoutMs, Opts.Token);
    if (R == smt::SatResult::Unknown) {
      // The incremental core gave up within its budget; the default
      // pipeline on a fresh solver settles some of those queries.
      ++SmtFallbacks;
      R = Solver->recheckFresh(Opts.SmtTimeoutMs, Opts.Token);
    }
    Segments Cex;
    if (R == smt::SatResult::Sat) {
      size_t NameIdx = 0;
      for (size_t I = 0; I != Shape.size(); ++I) {
        std::vector<int64_t> Seg;
        for (unsigned J = 0; J != Shape[I]; ++J)
          Seg.push_back(Solver->modelInt(Names[NameIdx++]));
        Cex.push_back(std::move(Seg));
      }
    }
    Solver->pop();
    Solver->releaseTerms();

    switch (R) {
    case smt::SatResult::Unsat:
      continue;
    case smt::SatResult::Unknown:
      return Verdict::Unknown;
    case smt::SatResult::Cancelled:
      return Verdict::Cancelled;
    case smt::SatResult::Sat:
      addCounterexample(Cex);
      if (CexOut)
        *CexOut = std::move(Cex);
      return Verdict::Refuted;
    }
  }
  return Verdict::Equivalent;
}

} // namespace synth
} // namespace grassp
