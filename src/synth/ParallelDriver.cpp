//===- synth/ParallelDriver.cpp -------------------------------------------==//

#include "synth/ParallelDriver.h"

#include "lang/Benchmarks.h"
#include "support/Journal.h"
#include "support/ThreadPool.h"
#include "support/Timing.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

namespace grassp {
namespace synth {

const char *taskStatusName(TaskStatus S) {
  switch (S) {
  case TaskStatus::Solved:
    return "solved";
  case TaskStatus::Unknown:
    return "unknown";
  case TaskStatus::Failed:
    return "failed";
  case TaskStatus::TimedOut:
    return "timeout";
  case TaskStatus::Crashed:
    return "crashed";
  case TaskStatus::Cancelled:
    return "cancelled";
  }
  return "?";
}

bool taskStatusFromName(const std::string &Name, TaskStatus *Out) {
  for (TaskStatus S :
       {TaskStatus::Solved, TaskStatus::Unknown, TaskStatus::Failed,
        TaskStatus::TimedOut, TaskStatus::Crashed, TaskStatus::Cancelled})
    if (Name == taskStatusName(S)) {
      *Out = S;
      return true;
    }
  return false;
}

std::string journalLine(const TaskResult &T) {
  std::ostringstream OS;
  OS << "{\"task\":\"" << support::jsonEscape(T.Name) << "\",\"status\":\""
     << taskStatusName(T.Status) << "\",\"group\":\""
     << support::jsonEscape(T.Result.Group) << "\",\"attempts\":" << T.Attempts
     << ",\"budget_ms\":" << T.BudgetMs << ",\"seconds\":"
     << T.Result.SynthSeconds << "}";
  return OS.str();
}

bool parseJournalLine(const std::string &Line, JournalEntry *Out) {
  // A torn line (the write a crash interrupted) is cut before its
  // closing brace; reject it outright rather than half-parsing it.
  if (!support::journalLineWellFormed(Line))
    return false;
  JournalEntry E;
  std::string Status;
  if (!support::jsonStringField(Line, "task", &E.Name) ||
      !support::jsonStringField(Line, "status", &Status) ||
      !taskStatusFromName(Status, &E.Status))
    return false;
  support::jsonStringField(Line, "group", &E.Group);
  double V = 0;
  if (support::jsonNumberField(Line, "attempts", &V))
    E.Attempts = static_cast<unsigned>(V);
  if (support::jsonNumberField(Line, "budget_ms", &V))
    E.BudgetMs = static_cast<unsigned>(V);
  if (support::jsonNumberField(Line, "seconds", &V))
    E.Seconds = V;
  *Out = E;
  return true;
}

std::vector<JournalEntry> loadJournal(const std::string &Path) {
  std::vector<JournalEntry> Entries;
  for (const std::string &Line : support::loadJournalLines(Path)) {
    JournalEntry E;
    if (!parseJournalLine(Line, &E))
      continue;
    // Later lines win: a re-run of the same task supersedes the old row.
    auto It = std::find_if(Entries.begin(), Entries.end(),
                           [&](const JournalEntry &X) {
                             return X.Name == E.Name;
                           });
    if (It != Entries.end())
      *It = E;
    else
      Entries.push_back(E);
  }
  return Entries;
}

ParallelDriver::ParallelDriver(DriverOptions Opts) : Opts(std::move(Opts)) {}

TaskResult ParallelDriver::synthesizeOne(const lang::SerialProgram &Prog,
                                         const DriverOptions &Opts,
                                         uint64_t TaskIndex) {
  TaskResult T;
  T.Name = Prog.Name;
  Stopwatch Wall;
  double Budget = Opts.SmtTimeoutMs;
  unsigned CrashBudget = Opts.MaxCrashRetries;

  // The per-task token: a child of the run token carrying the watchdog
  // deadline. Layered under the Wall check below it upgrades the
  // watchdog from "stop climbing between rungs" to "interrupt the SMT
  // query mid-flight and clamp each query to the remaining budget".
  Deadline TaskDl = Opts.TaskDeadlineSec > 0
                        ? Deadline::after(Opts.TaskDeadlineSec)
                        : Deadline();
  CancelToken TaskTok;
  if (Opts.Token.valid() || !TaskDl.isNever())
    TaskTok = Opts.Token.child(TaskDl);

  // Distinguishes "the whole run was cancelled" (Cancelled; never
  // journaled, so --resume re-runs the task) from "this task ran out of
  // wall clock" (TimedOut; a final verdict).
  auto classifyCut = [&]() {
    if (Opts.Token.cancelled()) {
      T.Status = TaskStatus::Cancelled;
      T.Result.FailureReason = "cancelled";
      T.Result.StageLog.push_back("driver: run cancelled, abandoning task");
    } else {
      T.Status = TaskStatus::TimedOut;
      T.Result.StageLog.push_back(
          "driver: watchdog deadline hit after " +
          std::to_string(Wall.seconds()) + "s, giving up");
    }
    return T;
  };

  auto capped = [&](double B) {
    if (Opts.MaxBudgetMs != 0)
      B = std::min(B, static_cast<double>(Opts.MaxBudgetMs));
    return std::max(1u, static_cast<unsigned>(B));
  };
  auto mergeAttempt = [&](SynthesisResult R, const std::string &Marker) {
    if (T.Attempts > 1) {
      R.SynthSeconds += T.Result.SynthSeconds;
      R.CandidatesTried += T.Result.CandidatesTried;
      R.SmtChecks += T.Result.SmtChecks;
      R.UnknownVerdicts += T.Result.UnknownVerdicts;
      R.SmtFallbacks += T.Result.SmtFallbacks;
      std::vector<std::string> Log = std::move(T.Result.StageLog);
      Log.push_back(Marker);
      Log.insert(Log.end(), R.StageLog.begin(), R.StageLog.end());
      R.StageLog = std::move(Log);
    }
    T.Result = std::move(R);
  };

  for (unsigned Rung = 0;; ++Rung) {
    if (TaskTok.cancelled())
      return classifyCut();
    unsigned BudgetMs = capped(Budget);
    SynthOptions SO = Opts.Synth;
    SO.Bounds.SmtTimeoutMs = BudgetMs;
    SO.Bounds.Token = TaskTok;
    ++T.Attempts;
    T.BudgetMs = BudgetMs;

    SynthesisResult R;
    bool Crashed = false;
    std::string CrashWhat;
    try {
      if (Opts.Faults)
        Opts.Faults->maybeThrow(
            FaultSiteSynthTask,
            (T.Attempts - 1) * SynthAttemptKeyStride + TaskIndex);
      R = synthesize(Prog, SO);
    } catch (const std::exception &E) {
      Crashed = true;
      CrashWhat = E.what();
    }

    if (Crashed) {
      // A crashed attempt contributes no counts; just log it in place.
      T.Result.StageLog.push_back("driver: attempt " +
                                  std::to_string(T.Attempts) +
                                  " crashed (" + CrashWhat + ")");
      if (CrashBudget == 0) {
        T.Status = TaskStatus::Crashed;
        T.Result.FailureReason = "crashed: " + CrashWhat;
        T.Result.StageLog.push_back(
            "driver: crash-retry budget exhausted, giving up");
        return T;
      }
      --CrashBudget;
      ++T.CrashRetries;
      --Rung; // a crash re-runs the same ladder rung.
      T.Result.StageLog.push_back("driver: re-running attempt at " +
                                  std::to_string(BudgetMs) + "ms budget");
      continue;
    }

    bool SawUnknown = R.UnknownVerdicts != 0;
    mergeAttempt(std::move(R), "driver: retry with SMT budget " +
                                   std::to_string(BudgetMs) + "ms");
    if (T.Result.Success) {
      T.Status = TaskStatus::Solved;
      return T;
    }
    if (T.Result.Cancelled)
      return classifyCut();
    if (!SawUnknown) {
      T.Status = TaskStatus::Failed;
      return T;
    }
    if (Opts.TaskDeadlineSec > 0 && Wall.seconds() >= Opts.TaskDeadlineSec) {
      T.Status = TaskStatus::TimedOut;
      T.Result.StageLog.push_back(
          "driver: watchdog deadline hit after " +
          std::to_string(Wall.seconds()) + "s, giving up");
      return T;
    }
    if (Rung >= Opts.MaxRetries) {
      T.Status = TaskStatus::Unknown;
      T.Result.StageLog.push_back(
          "driver: still unknown at " + std::to_string(BudgetMs) +
          "ms SMT budget, giving up");
      return T;
    }
    Budget *= Opts.BudgetMultiplier > 1.0 ? Opts.BudgetMultiplier : 2.0;
  }
}

std::vector<TaskResult>
ParallelDriver::run(const std::vector<const lang::SerialProgram *> &Progs)
    const {
  std::vector<TaskResult> Results(Progs.size());

  // Resume: anything the journal already solved is restored, not re-run.
  std::map<std::string, JournalEntry> Done;
  if (Opts.Resume && !Opts.JournalPath.empty())
    for (const JournalEntry &E : loadJournal(Opts.JournalPath))
      if (E.Status == TaskStatus::Solved)
        Done[E.Name] = E;

  support::JournalWriter Journal;
  std::mutex JournalMutex;
  if (!Opts.JournalPath.empty() && !Journal.open(Opts.JournalPath))
    std::fprintf(stderr,
                 "warning: cannot open journal '%s'; running without\n",
                 Opts.JournalPath.c_str());
  auto record = [&](const TaskResult &T) {
    if (!Journal.isOpen())
      return;
    // A cancelled task got no verdict; keeping it out of the journal is
    // what makes --resume re-run exactly the unfinished remainder.
    if (T.Status == TaskStatus::Cancelled)
      return;
    std::lock_guard<std::mutex> Lock(JournalMutex);
    Journal.append(journalLine(T)); // one task, one durable line.
  };

  std::vector<size_t> Pending;
  for (size_t I = 0; I != Progs.size(); ++I) {
    auto It = Done.find(Progs[I]->Name);
    if (It == Done.end()) {
      Pending.push_back(I);
      continue;
    }
    TaskResult &T = Results[I];
    T.Name = It->second.Name;
    T.Status = It->second.Status;
    T.Attempts = It->second.Attempts;
    T.BudgetMs = It->second.BudgetMs;
    T.FromJournal = true;
    T.Result.Group = It->second.Group;
    T.Result.SynthSeconds = It->second.Seconds;
    T.Result.StageLog.push_back("driver: restored from journal, not re-run");
  }

  unsigned Jobs = Opts.Jobs != 0
                      ? Opts.Jobs
                      : std::max(1u, std::thread::hardware_concurrency());
  // A task the cancelled run never started (shed from the queue, or
  // skipped by the worker's entry check).
  auto markCancelled = [&](size_t I) {
    TaskResult &T = Results[I];
    T.Name = Progs[I]->Name;
    T.Status = TaskStatus::Cancelled;
    T.Result.Cancelled = true;
    T.Result.FailureReason = "cancelled";
    T.Result.StageLog.push_back("driver: run cancelled before task started");
  };

  Jobs = std::min<unsigned>(Jobs, std::max<size_t>(Pending.size(), 1));
  if (Jobs <= 1) {
    for (size_t I : Pending) {
      if (Opts.Token.cancelled()) {
        markCancelled(I);
        continue;
      }
      Results[I] = synthesizeOne(*Progs[I], Opts, I);
      record(Results[I]);
    }
    return Results;
  }
  PoolOptions PO;
  PO.NumThreads = Jobs;
  PO.QueueCap = Opts.QueueCap;
  PO.Token = Opts.Token;
  ThreadPool Pool(PO);
  std::vector<std::atomic<bool>> Started(Progs.size());
  for (size_t I : Pending) {
    SubmitResult SR = Pool.submit([this, &Results, &Progs, &record, &Started,
                                   I] {
      if (Opts.Token.cancelled())
        return; // marked Cancelled below, after the pool settles.
      Started[I].store(true, std::memory_order_release);
      Results[I] = synthesizeOne(*Progs[I], Opts, I);
      record(Results[I]);
    });
    if (SR == SubmitResult::Cancelled)
      break; // every later pending task is marked below.
  }
  Pool.wait();
  for (size_t I : Pending)
    if (!Started[I].load(std::memory_order_acquire))
      markCancelled(I);
  return Results;
}

std::vector<TaskResult> ParallelDriver::runAll() const {
  std::vector<const lang::SerialProgram *> Progs;
  for (const lang::SerialProgram &P : lang::allBenchmarks())
    Progs.push_back(&P);
  return run(Progs);
}

} // namespace synth
} // namespace grassp
