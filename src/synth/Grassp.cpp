//===- synth/Grassp.cpp ----------------------------------------------------=//

#include "synth/Grassp.h"

#include "support/Timing.h"
#include "synth/CondPrefix.h"
#include "synth/Grammar.h"

#include <sstream>

namespace grassp {
namespace synth {

namespace {

/// Tries each plan in \p Plans against the corpus and the symbolic
/// checker; returns the first verified plan, logging how it was accepted.
bool tryPlans(EquivChecker &Checker, const std::vector<ParallelPlan> &Plans,
              const VerifyOptions &Bounds, SynthesisResult &Res,
              const char *StageName) {
  unsigned Tried = 0, Screened = 0;
  for (const ParallelPlan &Plan : Plans) {
    if (Bounds.Token.cancelled()) {
      Res.Cancelled = true;
      break;
    }
    ++Tried;
    if (!Checker.passesCorpus(Plan)) {
      ++Screened;
      continue;
    }
    ProofRoute Route = ProofRoute::BoundedUnknown;
    Verdict V = Checker.verify(Plan, Bounds, nullptr, &Route);
    if (V == Verdict::Cancelled) {
      Res.Cancelled = true;
      break;
    }
    if (V == Verdict::Unknown)
      ++Res.UnknownVerdicts;
    if (V == Verdict::Equivalent) {
      Res.Plan = Plan;
      Res.Success = true;
      Res.Proof = Route;
      std::ostringstream OS;
      OS << StageName << ": solved with candidate " << Tried << " of "
         << Plans.size() << " (" << Screened
         << " screened out by the corpus)";
      Res.StageLog.push_back(OS.str());
      Res.StageLog.push_back(std::string(StageName) + ": accepted by " +
                             proofRouteName(Route));
      Res.CandidatesTried += Tried;
      return true;
    }
    // Refuted or Unknown: the refuting model (if any) is already in the
    // corpus; keep searching.
  }
  std::ostringstream OS;
  if (Res.Cancelled)
    OS << StageName << ": cancelled after " << Tried << " of "
       << Plans.size() << " candidates";
  else
    OS << StageName << ": exhausted " << Plans.size() << " candidates ("
       << Screened << " screened out by the corpus)";
  Res.StageLog.push_back(OS.str());
  Res.CandidatesTried += Tried;
  return false;
}

} // namespace

SynthesisResult synthesize(const lang::SerialProgram &Prog,
                           const SynthOptions &Opts) {
  Stopwatch Timer;
  SynthesisResult Res;
  EquivChecker Checker(Prog);
  // CorpusTests == 0 means no corpus screen at all: the crafted seeds
  // would screen candidates too.
  if (Opts.CorpusTests != 0)
    Checker.seedCorpus(Opts.CorpusTests, Opts.CorpusSeed);
  for (const Segments &S : Opts.SeedInputs)
    Checker.addCounterexample(S);

  auto Finish = [&](bool Ok) {
    Res.SynthSeconds = Timer.seconds();
    Res.SmtChecks = Checker.numSmtChecks();
    Res.SmtFallbacks = Checker.numSmtFallbacks();
    if (Ok)
      Res.Group = Res.Plan.group();
    return Res;
  };
  auto FinishCancelled = [&]() {
    Res.FailureReason = "cancelled";
    return Finish(false);
  };
  if (Opts.Bounds.Token.cancelled())
    return FinishCancelled();

  // Stage 0: user-supplied merge templates, if any (paper Sect. 4).
  if (!Opts.ExtraMerges.empty()) {
    std::vector<ParallelPlan> Plans;
    for (const MergeFn &M : Opts.ExtraMerges) {
      ParallelPlan P;
      P.Kind = Scenario::NoPrefix;
      P.Merge = M;
      Plans.push_back(std::move(P));
    }
    if (tryPlans(Checker, Plans, Opts.Bounds, Res, "stage0-user"))
      return Finish(true);
    if (Res.Cancelled)
      return FinishCancelled();
  }

  // Stage 1: no prefix, trivial merge.
  {
    std::vector<ParallelPlan> Plans;
    for (MergeFn &M : trivialMergeCandidates(Prog)) {
      ParallelPlan P;
      P.Kind = Scenario::NoPrefix;
      P.Merge = std::move(M);
      Plans.push_back(std::move(P));
    }
    if (!Plans.empty() &&
        tryPlans(Checker, Plans, Opts.Bounds, Res, "stage1-trivial"))
      return Finish(true);
    if (Res.Cancelled)
      return FinishCancelled();
  }

  // Stage 1b: no prefix, nontrivial merge.
  {
    std::vector<ParallelPlan> Plans;
    for (MergeFn &M : nontrivialMergeCandidates(Prog)) {
      ParallelPlan P;
      P.Kind = Scenario::NoPrefix;
      P.Merge = std::move(M);
      Plans.push_back(std::move(P));
    }
    if (!Plans.empty() &&
        tryPlans(Checker, Plans, Opts.Bounds, Res, "stage1-merge"))
      return Finish(true);
    if (Res.Cancelled)
      return FinishCancelled();
  }

  // Stage 2: constant prefixes. Bag states cannot replay elements.
  if (!Prog.State.hasBag()) {
    std::vector<MergeFn> Merges = nontrivialMergeCandidates(Prog);
    for (MergeFn &M : trivialMergeCandidates(Prog))
      Merges.insert(Merges.begin(), std::move(M));
    for (unsigned L = 1; L <= Opts.MaxConstPrefix; ++L) {
      std::vector<ParallelPlan> Plans;
      for (const MergeFn &M : Merges) {
        ParallelPlan P;
        P.Kind = Scenario::ConstPrefix;
        P.PrefixLen = static_cast<int>(L);
        P.Merge = M;
        Plans.push_back(std::move(P));
      }
      std::string Name = "stage2-constprefix-l" + std::to_string(L);
      if (tryPlans(Checker, Plans, Opts.Bounds, Res, Name.c_str()))
        return Finish(true);
      if (Res.Cancelled)
        return FinishCancelled();
    }
  }

  // Stage 3: conditional prefixes with summaries. User-supplied
  // prefix_cond templates are tried first.
  if (!Prog.State.hasBag()) {
    std::vector<ir::ExprRef> Pcs = Opts.ExtraPrefixConds;
    for (const ir::ExprRef &Pc : prefixCondCandidates(Prog))
      Pcs.push_back(Pc);
    std::vector<ParallelPlan> Plans;
    for (const ir::ExprRef &Pc : Pcs) {
      std::string Why;
      std::optional<CondPrefixInfo> Info = buildCondPrefix(Prog, Pc, &Why);
      if (!Info) {
        Res.StageLog.push_back("stage3: prefix_cond " + ir::toString(Pc) +
                               " rejected (" + Why + ")");
        continue;
      }
      ParallelPlan P;
      P.Kind = Scenario::CondPrefixSummary;
      P.Cond = std::move(*Info);
      Plans.push_back(std::move(P));
    }
    if (!Plans.empty() &&
        tryPlans(Checker, Plans, Opts.Bounds, Res, "stage3-condprefix"))
      return Finish(true);
    if (Res.Cancelled)
      return FinishCancelled();
  }

  Res.FailureReason = "no stage produced a verified plan";
  return Finish(false);
}

SynthesisResult synthesizeWithLazyBounds(const lang::SerialProgram &Prog,
                                         const SynthOptions &Opts,
                                         unsigned Widen,
                                         unsigned MaxRounds) {
  SynthOptions Cur = Opts;
  SynthesisResult Res = synthesize(Prog, Cur);
  for (unsigned Round = 0; Round != MaxRounds && Res.Success; ++Round) {
    // A plan proved by induction is right for every segmentation; wider
    // bounds cannot refute it.
    if (Res.Proof == ProofRoute::Induction) {
      Res.StageLog.push_back(
          "lazy-bounds: plan proved by induction, wider re-verification "
          "skipped");
      return Res;
    }
    // Re-verify the winner under wider bounds. The induction already
    // failed on this plan, so only the shapes are checked.
    VerifyOptions Wide = Cur.Bounds;
    Wide.MaxSegments += Widen;
    Wide.MaxLen += Widen;
    EquivChecker Checker(Prog);
    Segments Cex;
    Verdict V = Checker.verifyBounded(Res.Plan, Wide, &Cex);
    Res.SmtFallbacks += Checker.numSmtFallbacks();
    if (V == Verdict::Equivalent) {
      Res.StageLog.push_back(
          "lazy-bounds: plan re-verified at m<=" +
          std::to_string(Wide.MaxSegments) + ", len<=" +
          std::to_string(Wide.MaxLen));
      return Res;
    }
    if (V == Verdict::Unknown) {
      ++Res.UnknownVerdicts;
      Res.StageLog.push_back("lazy-bounds: wider verification unknown");
      return Res;
    }
    // Refuted at the wider bound: re-synthesize from scratch with the
    // wider bounds and the refuting input seeded into the corpus.
    Cur.Bounds = Wide;
    Cur.SeedInputs.push_back(Cex);
    double Spent = Res.SynthSeconds;
    unsigned Fallbacks = Res.SmtFallbacks;
    std::vector<std::string> Log = std::move(Res.StageLog);
    Log.push_back("lazy-bounds: refuted at wider bounds, re-synthesizing");
    Res = synthesize(Prog, Cur);
    Res.SynthSeconds += Spent;
    Res.SmtFallbacks += Fallbacks;
    Log.insert(Log.end(), Res.StageLog.begin(), Res.StageLog.end());
    Res.StageLog = std::move(Log);
  }
  return Res;
}

} // namespace synth
} // namespace grassp
