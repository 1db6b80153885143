//===- synth/ParallelDriver.h - Concurrent synthesis driver --------------===//
//
// Schedules per-benchmark GRASSP pipelines onto the shared ThreadPool.
// Synthesis of one program is independent of every other (the original
// GRASSP report and Farzan's divide-and-conquer work both treat it as
// embarrassingly parallel), so the driver fans one task out per program.
//
// Isolation and determinism:
//  * Every in-flight task owns its whole pipeline — corpus, symbolic
//    evaluation, and one SmtSolver (one Z3 context) per attempt, which
//    checks every segment shape of every candidate with push/pop — so
//    tasks never share solver state.
//  * Results are stored by task index and returned in input order; with
//    ample SMT budgets the table a harness prints is byte-identical
//    (plan, stage, candidate/SMT counts) for any --jobs value.
//
// Budget policy: each task climbs an exponential budget ladder. Attempt
// k runs under SmtTimeoutMs * 2^k (capped at MaxBudgetMs
// when set); a failed run whose bounded checks returned Unknown (solver
// timeout) earns the next rung, up to MaxRetries rungs. Failures with
// no Unknown verdict are genuine search exhaustion and report Failed
// immediately. A wall-clock watchdog (TaskDeadlineSec) stops the climb.
//
// Fault tolerance: a crashed attempt (an exception out of synthesize(),
// injected at the synth.task site or real) is re-run at the same budget
// up to MaxCrashRetries times — the fleet-worker analogue of MapReduce
// re-executing a failed map task. With a journal armed, every finished
// task appends one JSON line immediately (crash-safe), and a resumed
// run skips tasks the journal already records as solved.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SYNTH_PARALLELDRIVER_H
#define GRASSP_SYNTH_PARALLELDRIVER_H

#include "support/Cancel.h"
#include "support/FaultInject.h"
#include "synth/Grassp.h"

#include <string>
#include <vector>

namespace grassp {
namespace synth {

/// Fault site consulted once per synthesis attempt, keyed by
/// Attempt * SynthAttemptKeyStride + TaskIndex.
inline constexpr const char *FaultSiteSynthTask = "synth.task";
inline constexpr uint64_t SynthAttemptKeyStride = 1000003;

struct DriverOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  unsigned Jobs = 1;
  /// Initial per-task SMT budget (rung 0 of the ladder).
  unsigned SmtTimeoutMs = 30000;
  /// Extra ladder rungs granted to a task whose failure involved
  /// Unknown verdicts.
  unsigned MaxRetries = 1;
  /// Budget ceiling in ms (0 = uncapped).
  unsigned MaxBudgetMs = 0;
  /// Wall-clock watchdog per task: once a task has spent this many
  /// seconds it stops climbing the ladder and reports TimedOut
  /// (0 = no deadline).
  double TaskDeadlineSec = 0.0;
  /// Re-runs granted to an attempt that crashed (threw) rather than
  /// failed; crashes re-run at the same budget rung.
  unsigned MaxCrashRetries = 2;
  /// JSON-lines journal of finished tasks; empty = no journal. Lines
  /// are appended and flushed as tasks finish, so a killed run keeps
  /// everything it completed.
  std::string JournalPath;
  /// Skip tasks the journal already records as solved (their results
  /// come back with FromJournal set and no plan).
  bool Resume = false;
  /// Fault injector consulted at the synth.task site; null = none.
  FaultInjector *Faults = nullptr;
  /// Run-wide cancellation: firing it stops new tasks from starting,
  /// interrupts in-flight SMT queries, and makes run() return promptly
  /// with every unfinished task marked Cancelled. Cancelled tasks are
  /// never journaled, so --resume re-runs exactly them. Each task also
  /// gets a child of this token carrying its TaskDeadlineSec deadline,
  /// which clamps the task's SMT budgets to the remaining wall clock.
  CancelToken Token;
  /// Bound on the pool's pending-task queue (0 = unbounded); see
  /// PoolOptions::QueueCap. With Jobs workers and thousands of tasks
  /// this caps driver memory and lets submit exert backpressure.
  size_t QueueCap = 0;
  /// Base synthesis options; Bounds.SmtTimeoutMs is overridden by the
  /// budget policy above.
  SynthOptions Synth;
};

enum class TaskStatus {
  Solved,   ///< A verified plan was found.
  Unknown,  ///< Failed with solver timeouts even at the top rung.
  Failed,   ///< Every stage exhausted without any Unknown verdict.
  TimedOut, ///< The wall-clock watchdog expired before a verdict.
  Crashed,  ///< Every attempt threw, even after crash re-runs.
  Cancelled, ///< The run token fired before the task finished.
};

const char *taskStatusName(TaskStatus S);
bool taskStatusFromName(const std::string &Name, TaskStatus *Out);

/// Outcome of one per-benchmark synthesis task.
struct TaskResult {
  std::string Name;
  SynthesisResult Result; ///< Attempts merged: log, counts, seconds.
  TaskStatus Status = TaskStatus::Failed;
  unsigned Attempts = 0;
  unsigned BudgetMs = 0;      ///< SMT budget of the final attempt.
  unsigned CrashRetries = 0;  ///< Attempts re-run after a crash.
  bool FromJournal = false;   ///< Restored by --resume, not re-run.
};

/// One line of the task journal, parsed back.
struct JournalEntry {
  std::string Name;
  TaskStatus Status = TaskStatus::Failed;
  std::string Group;
  unsigned Attempts = 0;
  unsigned BudgetMs = 0;
  double Seconds = 0;
};

/// Serializes \p T as one JSON object (no trailing newline), e.g.
/// {"task":"sum","status":"solved","group":"B1","attempts":1,
///  "budget_ms":30000,"seconds":0.52}
std::string journalLine(const TaskResult &T);
/// Strict parse of one journal line; false on malformed input.
bool parseJournalLine(const std::string &Line, JournalEntry *Out);
/// Loads every parsable line of \p Path (later lines win on duplicate
/// task names); empty when the file is absent.
std::vector<JournalEntry> loadJournal(const std::string &Path);

/// Fans per-program synthesis tasks out over a ThreadPool.
class ParallelDriver {
public:
  explicit ParallelDriver(DriverOptions Opts = DriverOptions());

  /// Synthesizes every program in \p Progs; results in input order.
  std::vector<TaskResult>
  run(const std::vector<const lang::SerialProgram *> &Progs) const;

  /// Runs the full Table-1 suite (lang::allBenchmarks()).
  std::vector<TaskResult> runAll() const;

  /// One task: synthesis under the ladder/watchdog/crash policy above.
  /// \p TaskIndex keys the synth.task fault site. Exposed for tests and
  /// for callers that do their own scheduling.
  static TaskResult synthesizeOne(const lang::SerialProgram &Prog,
                                  const DriverOptions &Opts,
                                  uint64_t TaskIndex = 0);

  const DriverOptions &options() const { return Opts; }

private:
  DriverOptions Opts;
};

} // namespace synth
} // namespace grassp

#endif // GRASSP_SYNTH_PARALLELDRIVER_H
