//===- perfbench/SynthCold.cpp - Cold synthesis plus certification -------===//
//
// One pass = synth::ParallelDriver (4 jobs) over all 27 Table-1 programs,
// then chc::certify on the programs of the verdict table (the 21 whose
// certification decides within about a second). Every plan must land in
// its ExpectedGroup with no Unknown SMT verdict, and every certification
// must match its table verdict.
//
// Set-up is what a cold process does before its first synthesis: start
// (exec and loading its libraries, Z3 among them), build the program and
// verdict tables, create the first Z3 context, and construct the
// ParallelDriver. Each setup_s sample is a fresh process: this program
// re-executes itself with --setup-only 1 and times the child from the
// spawn until it reports its set-up done. The run then sets up once more
// in its own process, untimed.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include "chc/Certify.h"
#include "ir/Expr.h"
#include "lang/Benchmarks.h"
#include "smt/Solver.h"
#include "support/Timing.h"
#include "synth/ParallelDriver.h"

#include <algorithm>
#include <cerrno>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace perfbench {

using namespace grassp;

namespace {

constexpr unsigned ColdSetups = 31;
constexpr unsigned DriverJobs = 4;

struct CertJob {
  size_t Index; ///< into Suite::Progs.
  std::string Expected;
};

struct Suite {
  std::vector<const lang::SerialProgram *> Progs;
  std::vector<CertJob> Certs;
  std::unique_ptr<synth::ParallelDriver> Driver;
};

Suite setUp(const RunOptions &O) {
  Suite S;
  for (const lang::SerialProgram &P : lang::allBenchmarks())
    S.Progs.push_back(&P);
  for (const auto &[Name, Verdict] : O.Verdicts) {
    auto It = std::find_if(S.Progs.begin(), S.Progs.end(),
                           [&](const lang::SerialProgram *P) {
                             return P->Name == Name;
                           });
    if (It != S.Progs.end())
      S.Certs.push_back({static_cast<size_t>(It - S.Progs.begin()), Verdict});
  }
  {
    smt::SmtSolver Warm;
    Warm.add(ir::constBool(true));
    (void)Warm.check();
  }
  synth::DriverOptions DO;
  DO.Jobs = DriverJobs;
  S.Driver = std::make_unique<synth::ParallelDriver>(DO);
  return S;
}

/// Seconds from spawning this program again with --setup-only 1 until
/// the child writes its ready byte. The child is always reaped.
double coldSetUp(const RunOptions &O) {
  std::vector<std::string> Args = O.SelfArgs;
  Args.push_back("--setup-only");
  Args.push_back("1");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  int Fds[2];
  if (::pipe2(Fds, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe2 failed");
  posix_spawn_file_actions_t Acts;
  ::posix_spawn_file_actions_init(&Acts);
  ::posix_spawn_file_actions_adddup2(&Acts, Fds[1], STDOUT_FILENO);
  Stopwatch W;
  pid_t Pid = -1;
  int Rc = ::posix_spawn(&Pid, "/proc/self/exe", &Acts, nullptr, Argv.data(),
                         environ);
  ::posix_spawn_file_actions_destroy(&Acts);
  ::close(Fds[1]);
  char Byte = 0;
  ssize_t Got = -1;
  if (Rc == 0)
    while ((Got = ::read(Fds[0], &Byte, 1)) < 0 && errno == EINTR) {
    }
  double Sec = W.seconds();
  ::close(Fds[0]);
  int St = 0;
  if (Rc == 0)
    while (::waitpid(Pid, &St, 0) < 0 && errno == EINTR) {
    }
  if (Rc != 0 || Got != 1 || !WIFEXITED(St) || WEXITSTATUS(St) != 0)
    throw std::runtime_error("the cold set-up process failed");
  return Sec;
}

/// Certifies one table program; returns the call's wall time.
double certifyOne(const Suite &S, const CertJob &C,
                  const std::vector<synth::TaskResult> &Tasks, Report &R) {
  const lang::SerialProgram &P = *S.Progs[C.Index];
  const synth::TaskResult &T = Tasks[C.Index];
  if (T.Status != synth::TaskStatus::Solved) {
    R.check(false, "certify " + P.Name + ": no plan to certify");
    return 0;
  }
  Stopwatch W;
  chc::CertifyOutcome Out;
  {
    Span Sp("chc", "certify", P.Name);
    Out = chc::certify(P, T.Result.Plan);
  }
  double Sec = W.seconds();
  std::string Got = chc::certStatusName(Out.Status);
  R.check(Got == C.Expected,
          "certify " + P.Name + ": " + Got + " (expected " + C.Expected + ")");
  R.sample("chc.certify_s@" + P.Name, Sec);
  if (Got != C.Expected)
    R.sample("chc.verdict_mismatch@" + P.Name, 1);
  return Sec;
}

/// One synthesis + certification pass; returns its wall time.
double runPass(const Suite &S, Report &R) {
  Span Pass("bench", "synth_cold.pass");
  Stopwatch Wall;
  std::vector<synth::TaskResult> Tasks;
  {
    Span Sp("synth", "ParallelDriver::run");
    Tasks = S.Driver->run(S.Progs);
  }
  double SynthWall = Wall.seconds();

  std::vector<double> ProgramSec(S.Progs.size(), 0.0);
  double Candidates = 0, Attempts = 0, Checks = 0, Unknowns = 0;
  double TaskSum = 0;
  for (size_t I = 0; I != Tasks.size(); ++I) {
    const synth::TaskResult &T = Tasks[I];
    const lang::SerialProgram &P = *S.Progs[I];
    R.check(T.Status == synth::TaskStatus::Solved &&
                T.Result.Group == P.ExpectedGroup &&
                T.Result.UnknownVerdicts == 0,
            "synth " + P.Name + ": " + synth::taskStatusName(T.Status) +
                ", group " + T.Result.Group + " (expected " +
                P.ExpectedGroup + "), unknowns " +
                std::to_string(T.Result.UnknownVerdicts));
    ProgramSec[I] = T.Result.SynthSeconds;
    TaskSum += T.Result.SynthSeconds;
    R.sample("synth.task_s." + P.Name, T.Result.SynthSeconds);
    Candidates += T.Result.CandidatesTried;
    Attempts += T.Attempts;
    Checks += T.Result.SmtChecks;
    Unknowns += T.Result.UnknownVerdicts;
  }

  double CertMax = 0;
  for (const CertJob &C : S.Certs) {
    double Sec = certifyOne(S, C, Tasks, R);
    ProgramSec[C.Index] += Sec;
    CertMax = std::max(CertMax, Sec);
  }
  double PassSec = Wall.seconds();

  for (double Sec : ProgramSec)
    R.sample("synth_cold.program_s", Sec);
  R.sample("synth_cold.pass_s", PassSec);
  R.sample("synth_cold.synth_phase_s", SynthWall);
  R.sample("synth_cold.synth_cpu_s", TaskSum);
  R.sample("synth.candidates", Candidates);
  R.sample("synth.ladder_attempts", Attempts);
  R.sample("smt.checks", Checks);
  R.sample("smt.unknowns", Unknowns);
  R.sample("chc.certify_max_s", CertMax);
  return PassSec;
}

} // namespace

int setUpSynthColdOnly(const RunOptions &O) {
  Suite S = setUp(O);
  return ::write(STDOUT_FILENO, "R", 1) == 1 ? 0 : 1;
}

void runSynthCold(const RunOptions &O, Report &R) {
  for (unsigned Rep = 0; Rep != ColdSetups; ++Rep)
    R.sample("setup_s", coldSetUp(O));
  Suite S = setUp(O);
  R.check(S.Certs.size() == O.Verdicts.size(),
          "the verdict table names a program outside the suite");

  measurePhases(O, R, [&](Report &Into, double Budget) {
    Stopwatch W;
    std::vector<double> Passes;
    // A pass takes most of the budget; start another only if one more
    // of the same length still fits.
    do
      Passes.push_back(runPass(S, Into));
    while (W.seconds() + Passes.back() <= Budget);
    std::sort(Passes.begin(), Passes.end());
    return Passes[Passes.size() / 2];
  });
}

} // namespace perfbench
