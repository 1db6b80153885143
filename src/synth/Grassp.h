//===- synth/Grassp.h - The gradual synthesis driver ---------------------===//
//
// The top of the GRASSP architecture (paper Fig. 10): stages of
// increasing complexity are attempted in order, and the first stage that
// produces a verified plan wins:
//
//   stage 1  - no prefix, trivial merge           (group B1)
//   stage 1b - no prefix, nontrivial merge        (group B2)
//   stage 2  - constant prefixes                  (group B3)
//   stage 3  - conditional prefixes + summaries   (group B4)
//
// Every candidate is screened against the counterexample corpus and then
// verified symbolically: a no-prefix plan first by induction, any plan
// the induction does not prove by the bounded shapes, whose refuting
// models feed back into the corpus (CEGIS).
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SYNTH_GRASSP_H
#define GRASSP_SYNTH_GRASSP_H

#include "synth/EquivCheck.h"
#include "synth/ParallelPlan.h"

#include <optional>
#include <string>
#include <vector>

namespace grassp {
namespace synth {

struct SynthOptions {
  VerifyOptions Bounds;
  /// Random counterexample-corpus entries; 0 turns the corpus screen off
  /// (the crafted boundary seeds are skipped too).
  unsigned CorpusTests = 120;
  uint64_t CorpusSeed = 0x5eed5eedULL;
  /// Maximum constant prefix length attempted in stage 2.
  unsigned MaxConstPrefix = 2;
  /// User-defined template libraries (paper Sect. 4: the libraries "can
  /// be populated with new, user-defined templates to enlarge the search
  /// space"). Tried before the built-in candidates of their stage.
  std::vector<MergeFn> ExtraMerges;
  std::vector<ir::ExprRef> ExtraPrefixConds;
  /// Additional corpus inputs (e.g. counterexamples carried over from a
  /// wider-bound refutation during lazy bound maintenance).
  std::vector<Segments> SeedInputs;
};

struct SynthesisResult {
  bool Success = false;
  /// The run was cut short by its CancelToken (Bounds.Token): no stage
  /// verdict is implied, partial counters/logs are still filled in.
  bool Cancelled = false;
  ParallelPlan Plan;
  std::string Group; // B1..B4 on success.
  /// How the winning plan was accepted (set on success).
  std::optional<ProofRoute> Proof;
  double SynthSeconds = 0;
  unsigned CandidatesTried = 0;
  unsigned SmtChecks = 0;
  /// Verifier verdicts that came back Unknown (solver timeout). A
  /// failed run with UnknownVerdicts != 0 may succeed under a larger
  /// SMT budget; the parallel driver keys its retry policy on this. An
  /// Unknown from the induction only sends the plan to the bounded
  /// shapes and is not counted.
  unsigned UnknownVerdicts = 0;
  /// Segment shapes whose incremental SMT check came back Unknown and
  /// were checked again on a fresh solver (EquivChecker::verifyBounded).
  /// Zero at the default budget; a tight --timeout-ms makes it climb.
  unsigned SmtFallbacks = 0;
  /// One line per stage attempted, e.g. "stage1: refuted after 3
  /// candidates"; reproduces the gradual escalation of Fig. 10.
  std::vector<std::string> StageLog;
  std::string FailureReason;
};

/// Synthesizes a parallel plan for \p Prog, gradually.
SynthesisResult synthesize(const lang::SerialProgram &Prog,
                           const SynthOptions &Opts = SynthOptions());

/// Lazy bound maintenance (paper Sect. 8.1): synthesize under the small
/// bounds of \p Opts, then re-verify the winner under bounds widened by
/// \p Widen segments/elements; on refutation the counterexample seeds a
/// re-synthesis, up to \p MaxRounds rounds. A winner proved by induction
/// is not re-verified. Each escalation is logged in the result's
/// StageLog.
SynthesisResult synthesizeWithLazyBounds(const lang::SerialProgram &Prog,
                                         const SynthOptions &Opts =
                                             SynthOptions(),
                                         unsigned Widen = 1,
                                         unsigned MaxRounds = 3);

} // namespace synth
} // namespace grassp

#endif // GRASSP_SYNTH_GRASSP_H
