//===- tools/grassp.cpp - The GRASSP command-line driver ------------------==//
//
// End-user entry point:
//
//   grassp list                      list the Table-1 benchmarks
//   grassp synth <name>             synthesize and describe the plan
//   grassp synth-all [--jobs N]     synthesize the whole suite, in
//                                   parallel on a thread pool
//   grassp run <name> [N] [P] [--no-specialize] [--no-native]
//              [--input FILE] [--source KIND] [--max-elems M]
//              [--chunk-elems C]
//                                   serial vs parallel over N elements;
//                                   prints the selected execution tier;
//                                   --no-specialize ablates the fused
//                                   kernels, --no-native the jit tier;
//                                   --input folds a workload file through
//                                   a segment source (mmap / chunked /
//                                   memory / auto) so inputs larger than
//                                   RAM never materialize; chunked
//                                   streams text files, binary files
//                                   always use mmap
//   grassp convert <in.txt> <out.bin> [--max-elems M]
//   grassp convert --gen <name> <N> <out.bin> [--seed S]
//                                   text workload -> binary workload, or
//                                   stream-generate a benchmark workload
//                                   straight to binary, both in O(1)
//                                   memory
//   grassp stream <name> [--input FILE] [--source KIND] [opts]
//                                   incremental recompute over the
//                                   certified merge tree; append / edit /
//                                   query / verify commands on stdin
//   grassp emit-cpp <name>          print the standalone C++ translation
//   grassp emit-mr <name>           print the mapper/reducer translation
//   grassp emit-chc <name>          print the CHC system (SMT-LIB2)
//   grassp certify <name> [ms]      Spacer certification
//   grassp fuzz [opts]              differential oracle over all paths
//   grassp chaos [opts]             fuzz under seeded fault injection;
//                                   --dist adds the multi-process
//                                   runtime and kills REAL workers
//   grassp dist-run <name> [N]      run a workload on the multi-process
//                                   runtime (forked workers over Unix
//                                   sockets) with optional real fault
//                                   injection; prints the recovery
//                                   report next to the serial answer
//   grassp serve [opts]             long-lived synthesis service on a
//                                   Unix socket: persistent solution
//                                   cache, isolated solver workers,
//                                   SIGTERM drains gracefully
//   grassp serve-req <req> [opts]   one client request against a
//                                   running server (synth / run /
//                                   certify / stats)
//   grassp chaos --serve [opts]     fault-inject a REAL server process
//                                   and assert bit-identical answers,
//                                   zero service deaths
//
//===----------------------------------------------------------------------===//

#include "chc/Certify.h"
#include "codegen/CppCodegen.h"
#include "dist/Coordinator.h"
#include "dist/Worker.h"
#include "lang/Benchmarks.h"
#include "lang/Interp.h"
#include "runtime/MergeTree.h"
#include "runtime/Runner.h"
#include "runtime/SegmentSource.h"
#include "runtime/Workload.h"
#include "serve/Chaos.h"
#include "serve/Client.h"
#include "serve/ProgramText.h"
#include "serve/Server.h"
#include "support/Args.h"
#include "support/Cancel.h"
#include "support/FaultInject.h"
#include "support/Timing.h"
#include "synth/Grassp.h"
#include "synth/ParallelDriver.h"
#include "testing/Fuzz.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <unistd.h>

using namespace grassp;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s list | synth <name> |\n"
               "       synth-all [--jobs N] [--timeout-ms T] [--retries K] "
               "[--max-budget-ms M] [--deadline-sec D]\n"
               "                 [--queue-cap Q] [--journal FILE] "
               "[--resume] |\n"
               "       run <name> [N] [P] [--no-specialize] [--no-native] "
               "[--input FILE] [--source auto|memory|mmap|chunked]\n"
               "                 [--max-elems M] [--chunk-elems C]\n"
               "                 (--source chunked streams text files; "
               "binary files always use mmap) |\n"
               "       convert <in.txt> <out.bin> [--max-elems M] |\n"
               "       convert --gen <name> <N> <out.bin> [--seed S] |\n"
               "       stream <name> [--input FILE] [--source KIND] "
               "[--chunk-elems C] [--max-elems M]\n"
               "                 [--no-specialize] [--no-native] "
               "(append/edit/query/verify/stats on stdin) |\n"
               "       emit-cpp "
               "<name> | emit-mr "
               "<name> | emit-chc <name> "
               "| certify <name> [timeout-ms] |\n"
               "       fuzz [--seconds N] [--seed S] [--segments M] "
               "[--no-emit] [--jobs N] [--faults] [--fault-seed S]\n"
               "            [--dist] [--dist-workers W] [--kill-permille K] "
               "[--exit-permille K] [--hang-permille K]\n"
               "            [--corrupt-permille K] [name...] |\n"
               "       chaos [same options as fuzz; --faults implied; "
               "--dist kills real worker processes] |\n"
               "       dist-run <name> [N] [--workers W] [--shards S] "
               "[--batch-shards B] [--json]\n"
               "                [--input FILE] [--source KIND] "
               "[--max-elems M] [--chunk-elems C]\n"
               "                [--fault-seed S] [--kill-permille K] "
               "[--exit-permille K] [--hang-permille K]\n"
               "                [--corrupt-permille K] [--no-specialize] "
               "[--no-native] |\n"
               "       serve [--socket PATH] [--cache DIR] [--pool N] "
               "[--high-water N] [--snapshot-every N]\n"
               "             [--smt-timeout-ms T] [--deadline-sec D] "
               "[--seed S] |\n"
               "       serve-req synth|run|certify|stats [--socket PATH] "
               "[name] [--n N] [--seed S] |\n"
               "       chaos --serve [--seconds N] [--seed S] "
               "[--kill-permille K] [--hang-permille K]\n"
               "             [--torn-every N] [--disconnect-every N] "
               "[--kill-cycles N] [--pool N] [--dir D] [--verbose]\n",
               Prog);
  return 2;
}

const lang::SerialProgram *lookup(const char *Name) {
  const lang::SerialProgram *P = lang::findBenchmark(Name);
  if (!P)
    std::fprintf(stderr, "error: unknown benchmark '%s' (try 'list')\n",
                 Name);
  return P;
}

synth::SynthesisResult synthOrDie(const lang::SerialProgram &P) {
  synth::SynthesisResult R = synth::synthesize(P);
  if (!R.Success) {
    std::fprintf(stderr, "error: synthesis failed: %s\n",
                 R.FailureReason.c_str());
    std::exit(1);
  }
  return R;
}

/// The input options `run`, `dist-run` and `stream` share.
struct InputOptions {
  bool Specialize = true;
  bool Native = true;
  const char *File = nullptr;
  runtime::SourceKind Kind = runtime::SourceKind::Auto;
  uint64_t MaxElems = 0;
  uint64_t ChunkElems = 0;

  /// Consumes argv[I] (and its value) when it is one of the shared
  /// options and returns true. A malformed value is a usage error:
  /// an "error: ..." line and exit status 2.
  bool parse(int Argc, char **Argv, int &I) {
    NumericFlag Num(Argc, Argv, I);
    if (Num("--max-elems", &MaxElems) || Num("--chunk-elems", &ChunkElems))
      return true;
    if (std::strcmp(Argv[I], "--no-specialize") == 0)
      Specialize = false;
    else if (std::strcmp(Argv[I], "--no-native") == 0)
      Native = false;
    else if (std::strcmp(Argv[I], "--input") == 0 && I + 1 < Argc)
      File = Argv[++I];
    else if (std::strcmp(Argv[I], "--source") == 0 && I + 1 < Argc) {
      if (!runtime::parseSourceKind(Argv[++I], &Kind)) {
        std::fprintf(stderr,
                     "error: --source expects auto, memory, mmap, or "
                     "chunked, got '%s'\n",
                     Argv[I]);
        std::exit(2);
      }
    } else
      return false;
    return true;
  }

  runtime::SourceOptions sourceOptions() const {
    runtime::SourceOptions SOpts;
    if (ChunkElems)
      SOpts.ChunkElems = static_cast<size_t>(ChunkElems);
    return SOpts;
  }
};

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage(argv[0]);
  const char *Cmd = argv[1];

  if (std::strcmp(Cmd, "list") == 0) {
    for (const lang::SerialProgram &P : lang::allBenchmarks())
      std::printf("%-22s %-4s %s\n", P.Name.c_str(),
                  P.ExpectedGroup.c_str(), P.Description.c_str());
    return 0;
  }
  if (std::strcmp(Cmd, "synth-all") == 0) {
    synth::DriverOptions Opts;
    unsigned DeadlineSec = 0;
    unsigned QueueCap = 0;
    for (int I = 2; I != argc; ++I) {
      NumericFlag Num(argc, argv, I);
      if (Num("--jobs", &Opts.Jobs) ||
          Num("--timeout-ms", &Opts.SmtTimeoutMs) ||
          Num("--retries", &Opts.MaxRetries) ||
          Num("--max-budget-ms", &Opts.MaxBudgetMs) ||
          Num("--deadline-sec", &DeadlineSec) ||
          Num("--queue-cap", &QueueCap))
        continue;
      if (std::strcmp(argv[I], "--journal") == 0 && I + 1 < argc) {
        Opts.JournalPath = argv[++I];
      } else if (std::strcmp(argv[I], "--resume") == 0) {
        Opts.Resume = true;
      } else {
        return usage(argv[0]);
      }
    }
    Opts.TaskDeadlineSec = DeadlineSec;
    Opts.QueueCap = QueueCap;
    if (Opts.Resume && Opts.JournalPath.empty()) {
      std::fprintf(stderr, "error: --resume needs --journal FILE\n");
      return 2;
    }
    // Ctrl-C fires this token: in-flight SMT queries are interrupted,
    // queued tasks are shed, the journal keeps every finished task, and
    // a later --resume re-runs exactly the remainder.
    Opts.Token = installSignalSource();
    synth::ParallelDriver Driver(Opts);
    std::vector<synth::TaskResult> Results = Driver.runAll();
    unsigned Solved = 0, Restored = 0, Cancelled = 0, Fallbacks = 0;
    for (const synth::TaskResult &T : Results) {
      std::string Fb;
      if (T.Result.SmtFallbacks)
        Fb = ", " + std::to_string(T.Result.SmtFallbacks) + " smt fallback" +
             (T.Result.SmtFallbacks == 1 ? "" : "s");
      std::printf("%-22s %-8s %-4s %s  (%u attempt%s%s%s)\n", T.Name.c_str(),
                  taskStatusName(T.Status),
                  T.Status == synth::TaskStatus::Solved
                      ? T.Result.Group.c_str()
                      : "-",
                  formatSeconds(T.Result.SynthSeconds).c_str(), T.Attempts,
                  T.Attempts == 1 ? "" : "s", Fb.c_str(),
                  T.FromJournal ? ", from journal" : "");
      Solved += T.Status == synth::TaskStatus::Solved ? 1 : 0;
      Restored += T.FromJournal ? 1 : 0;
      Cancelled += T.Status == synth::TaskStatus::Cancelled ? 1 : 0;
      Fallbacks += T.Result.SmtFallbacks;
    }
    // A fallback is a segment shape whose incremental SMT check came
    // back Unknown and was re-checked on a fresh solver.
    std::printf("solved %u/%zu, %u smt fallback%s", Solved, Results.size(),
                Fallbacks, Fallbacks == 1 ? "" : "s");
    if (Restored)
      std::printf(" (%u restored from journal, not re-run)", Restored);
    if (Cancelled)
      std::printf(" (interrupted: %u task(s) cancelled%s)", Cancelled,
                  Opts.JournalPath.empty()
                      ? ""
                      : "; finished tasks are journaled, --resume "
                        "re-runs the rest");
    std::printf("\n");
    if (int Sig = signalExitCode())
      return Sig;
    return Solved == Results.size() ? 0 : 1;
  }
  if (std::strcmp(Cmd, "fuzz") == 0 || std::strcmp(Cmd, "chaos") == 0) {
    // `chaos --serve` is its own harness: it forks REAL server
    // processes, so the parent must NOT install the signal source (a
    // forked child would inherit the handler state without the watcher
    // thread). Intercept before any of the fuzz setup runs.
    for (int I = 2; I != argc; ++I) {
      if (std::strcmp(argv[I], "--serve") != 0)
        continue;
      if (std::strcmp(Cmd, "chaos") != 0)
        return usage(argv[0]);
      serve::ServeChaosOptions SC;
      for (int J = 2; J != argc; ++J) {
        NumericFlag Num(argc, argv, J);
        unsigned Pool = 0;
        if (Num("--seconds", &SC.Seconds) ||
            Num("--kill-permille", &SC.KillPermille) ||
            Num("--hang-permille", &SC.HangPermille) ||
            Num("--kill-cycles", &SC.KillCycles) ||
            Num("--seed", &SC.Seed) ||
            Num("--torn-every", &SC.TornEveryNth) ||
            Num("--disconnect-every", &SC.DisconnectEveryNth))
          continue;
        if (Num("--pool", &Pool)) {
          SC.PoolSize = Pool;
        } else if (std::strcmp(argv[J], "--dir") == 0 && J + 1 < argc) {
          SC.WorkDir = argv[++J];
        } else if (std::strcmp(argv[J], "--verbose") == 0) {
          SC.Verbose = true;
        } else if (std::strcmp(argv[J], "--serve") == 0) {
          continue;
        } else {
          return usage(argv[0]);
        }
      }
      return serve::serveChaosMain(SC);
    }
    testing::FuzzOptions FOpts;
    synth::DriverOptions DOpts;
    DOpts.Jobs = 0; // all hardware threads for the synthesis stage.
    // One Ctrl-C = clean partial summary + exit 130; a second one
    // hard-kills (the source restores SIG_DFL after firing).
    FOpts.Token = installSignalSource();
    DOpts.Token = FOpts.Token;
    FOpts.Chaos = std::strcmp(Cmd, "chaos") == 0;
    std::vector<std::string> Names;
    for (int I = 2; I != argc; ++I) {
      NumericFlag Num(argc, argv, I);
      if (Num("--seconds", &FOpts.Seconds) ||
          Num("--segments", &FOpts.Segments) ||
          Num("--jobs", &DOpts.Jobs) ||
          Num("--fail-permille", &FOpts.ChaosFailPermille) ||
          Num("--dist-workers", &FOpts.DistWorkers) ||
          Num("--kill-permille", &FOpts.DistKillPermille) ||
          Num("--exit-permille", &FOpts.DistExitPermille) ||
          Num("--hang-permille", &FOpts.DistHangPermille) ||
          Num("--corrupt-permille", &FOpts.DistCorruptPermille) ||
          Num("--seed", &FOpts.Seed) ||
          Num("--fault-seed", &FOpts.ChaosSeed))
        continue;
      if (std::strcmp(argv[I], "--faults") == 0) {
        FOpts.Chaos = true;
      } else if (std::strcmp(argv[I], "--dist") == 0) {
        FOpts.Dist = true;
      } else if (std::strcmp(argv[I], "--no-emit") == 0) {
        FOpts.UseEmitted = false;
      } else if (argv[I][0] == '-') {
        return usage(argv[0]);
      } else {
        if (!lookup(argv[I]))
          return 2;
        Names.push_back(argv[I]);
      }
    }
    return testing::fuzzMain(Names, FOpts, DOpts);
  }
  if (std::strcmp(Cmd, "convert") == 0) {
    // Both forms stream in bounded memory: a >RAM workload can be
    // converted or generated without ever materializing it.
    if (argc >= 3 && std::strcmp(argv[2], "--gen") == 0) {
      if (argc < 6)
        return usage(argv[0]);
      const lang::SerialProgram *GP = lookup(argv[3]);
      if (!GP)
        return 2;
      size_t N = 0;
      if (!parseSize(argv[4], &N) || N == 0) {
        std::fprintf(stderr, "error: --gen expects a positive element "
                             "count, got '%s'\n",
                     argv[4]);
        return 2;
      }
      const char *OutPath = argv[5];
      uint64_t Seed = 1;
      for (int I = 6; I < argc; ++I) {
        if (std::strcmp(argv[I], "--seed") == 0 && I + 1 < argc &&
            parseSeed(argv[++I], &Seed))
          continue;
        return usage(argv[0]);
      }
      try {
        runtime::BinaryWorkloadWriter Writer(OutPath);
        runtime::WorkloadStream Stream(*GP, N, Seed);
        std::vector<int64_t> Slice;
        while (Stream.remaining() != 0) {
          Slice.clear();
          Stream.generate(size_t{1} << 20, Slice);
          Writer.append(Slice);
        }
        Writer.close();
        std::printf("wrote %llu element(s) to %s (%s, seed %llu)\n",
                    (unsigned long long)Writer.written(), OutPath,
                    GP->Name.c_str(), (unsigned long long)Seed);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "error: %s\n", E.what());
        return 1;
      }
      return 0;
    }
    if (argc < 4)
      return usage(argv[0]);
    uint64_t MaxElems = 0;
    for (int I = 4; I < argc; ++I) {
      if (std::strcmp(argv[I], "--max-elems") == 0 && I + 1 < argc &&
          parseSeed(argv[++I], &MaxElems))
        continue;
      return usage(argv[0]);
    }
    try {
      uint64_t Count =
          runtime::convertTextToBinary(argv[2], argv[3], MaxElems);
      std::printf("wrote %llu element(s) to %s\n", (unsigned long long)Count,
                  argv[3]);
    } catch (const std::exception &E) {
      std::fprintf(stderr, "error: %s\n", E.what());
      return 1;
    }
    return 0;
  }
  if (std::strcmp(Cmd, "serve") == 0) {
    serve::ServerOptions SO;
    SO.SocketPath = "/tmp/grassp-serve.sock";
    SO.CacheDir = "grassp-serve-cache";
    unsigned Pool = 0, HighWater = 0, DeadlineSec = 0;
    for (int I = 2; I != argc; ++I) {
      NumericFlag Num(argc, argv, I);
      unsigned SnapEvery = 0;
      if (Num("--pool", &Pool) || Num("--high-water", &HighWater) ||
          Num("--smt-timeout-ms", &SO.SmtTimeoutMs) ||
          Num("--deadline-sec", &DeadlineSec))
        continue;
      if (Num("--snapshot-every", &SnapEvery)) {
        SO.SnapshotEvery = SnapEvery;
      } else if (std::strcmp(argv[I], "--socket") == 0 && I + 1 < argc) {
        SO.SocketPath = argv[++I];
      } else if (std::strcmp(argv[I], "--cache") == 0 && I + 1 < argc) {
        SO.CacheDir = argv[++I];
      } else if (std::strcmp(argv[I], "--seed") == 0 && I + 1 < argc &&
                 parseSeed(argv[I + 1], &SO.Seed)) {
        ++I;
      } else {
        return usage(argv[0]);
      }
    }
    if (Pool)
      SO.PoolSize = Pool;
    if (HighWater)
      SO.HighWaterJobs = HighWater;
    if (DeadlineSec)
      SO.JobDeadlineSec = DeadlineSec;
    // SIGINT = hard stop; first SIGTERM = graceful drain (finish
    // in-flight solves, snapshot the cache, exit 0).
    SO.Root = installSignalSource();
    SO.Drain = installDrainSignalSource();
    serve::ServeServer Server;
    std::string Err;
    if (!Server.init(SO, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    std::fprintf(stderr, "grassp serve: listening on %s (cache %s, %zu "
                         "cached entr%s)\n",
                 SO.SocketPath.c_str(), SO.CacheDir.c_str(),
                 Server.cache().size(),
                 Server.cache().size() == 1 ? "y" : "ies");
    return Server.run();
  }
  if (std::strcmp(Cmd, "serve-req") == 0) {
    if (argc < 3)
      return usage(argv[0]);
    const char *Req = argv[2];
    std::string Socket = "/tmp/grassp-serve.sock";
    const char *Name = nullptr;
    size_t N = 1 << 16;
    uint64_t Seed = 1;
    for (int I = 3; I != argc; ++I) {
      if (std::strcmp(argv[I], "--socket") == 0 && I + 1 < argc) {
        Socket = argv[++I];
      } else if (std::strcmp(argv[I], "--n") == 0 && I + 1 < argc &&
                 parseSize(argv[I + 1], &N)) {
        ++I;
      } else if (std::strcmp(argv[I], "--seed") == 0 && I + 1 < argc &&
                 parseSeed(argv[I + 1], &Seed)) {
        ++I;
      } else if (argv[I][0] != '-' && !Name) {
        Name = argv[I];
      } else {
        return usage(argv[0]);
      }
    }
    serve::ServeClient Client;
    std::string Err;
    if (!Client.connect(Socket, 5.0, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    serve::ClientReply Reply;
    bool Sent = false;
    if (std::strcmp(Req, "stats") == 0) {
      Sent = Client.stats(&Reply);
    } else {
      if (!Name) {
        std::fprintf(stderr, "error: serve-req %s needs a benchmark name\n",
                     Req);
        return 2;
      }
      const lang::SerialProgram *RP = lookup(Name);
      if (!RP)
        return 2;
      std::string Text = serve::printProgramText(*RP);
      if (std::strcmp(Req, "synth") == 0)
        Sent = Client.synth(Text, &Reply);
      else if (std::strcmp(Req, "certify") == 0)
        Sent = Client.certify(Text, &Reply);
      else if (std::strcmp(Req, "run") == 0)
        Sent = Client.run(Text, runtime::generateWorkload(*RP, N, Seed),
                          &Reply);
      else
        return usage(argv[0]);
    }
    if (!Sent) {
      std::fprintf(stderr, "error: transport failure talking to %s\n",
                   Socket.c_str());
      return 1;
    }
    std::printf("%s\n", serve::describeReply(Reply).c_str());
    return Reply.IsOk ? 0 : 1;
  }
  if (argc < 3)
    return usage(argv[0]);
  const lang::SerialProgram *P = lookup(argv[2]);
  if (!P)
    return 1;

  if (std::strcmp(Cmd, "synth") == 0) {
    synth::SynthesisResult R = synthOrDie(*P);
    std::printf("%s (%s)\nsynthesized in %s, %u candidates, %u SMT "
                "queries, proof: %s\n\n%s\nstages:\n",
                P->Name.c_str(), P->Description.c_str(),
                formatSeconds(R.SynthSeconds).c_str(), R.CandidatesTried,
                R.SmtChecks, synth::proofRouteName(*R.Proof),
                R.Plan.describe(*P).c_str());
    for (const std::string &S : R.StageLog)
      std::printf("  %s\n", S.c_str());
    return 0;
  }
  if (std::strcmp(Cmd, "run") == 0) {
    size_t N = 10000000;
    unsigned Workers = 8;
    InputOptions In;
    unsigned Positional = 0;
    for (int I = 3; I < argc; ++I) {
      if (In.parse(argc, argv, I))
        continue;
      bool Ok = Positional == 0   ? parseSize(argv[I], &N)
                : Positional == 1 ? parseUnsigned(argv[I], &Workers)
                                  : false;
      if (!Ok) {
        std::fprintf(stderr,
                     "error: run expects [N] [P] [--no-specialize] "
                     "[--no-native] [--input FILE] [--source KIND] "
                     "[--max-elems M] [--chunk-elems C], got '%s'\n",
                     argv[I]);
        return 2;
      }
      ++Positional;
    }
    synth::SynthesisResult R = synthOrDie(*P);
    runtime::CompiledProgram CP(*P, In.Specialize, In.Native);
    runtime::CompiledPlan Plan(*P, R.Plan, In.Specialize, In.Native);
    std::string Info = CP.specializationInfo();
    std::printf("tier     = %s%s%s%s\n", runtime::execTierName(CP.tier()),
                Info.empty() ? "" : " (", Info.c_str(),
                Info.empty() ? "" : ")");

    if (In.File) {
      // File inputs go through a SegmentSource: serial and parallel both
      // hold one chunk resident at a time, so the file may be far
      // larger than RAM (or the address-space cap).
      std::unique_ptr<runtime::SegmentSource> Src;
      try {
        runtime::SourceOptions SOpts = In.sourceOptions();
        SOpts.MinChunks = Workers;
        Src = runtime::openSegmentSource(In.File, In.Kind, SOpts,
                                         In.MaxElems);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "error: %s\n", E.what());
        return 2;
      }
      if (Src->elements() < Workers) {
        std::fprintf(stderr,
                     "error: workload file holds %llu element(s), fewer "
                     "than the %u workers\n",
                     (unsigned long long)Src->elements(), Workers);
        return 2;
      }
      std::printf("source   = %s (%llu elements, %zu chunks)\n",
                  Src->kind(), (unsigned long long)Src->elements(),
                  Src->chunkCount());
      double SerialSec = 0;
      int64_t SerialOut = runtime::runSerialSourceTimed(CP, *Src,
                                                        &SerialSec);
      runtime::ParallelRunResult PR = runtime::runParallel(Plan, *Src);
      std::printf("serial   = %lld (%s)\nparallel = %lld (modeled %.2fX "
                  "on %u workers)\n",
                  (long long)SerialOut, formatSeconds(SerialSec).c_str(),
                  (long long)PR.Output,
                  runtime::modeledSpeedup(SerialSec, PR, Workers),
                  Workers);
      return SerialOut == PR.Output ? 0 : 1;
    }

    std::vector<int64_t> Data = runtime::generateWorkload(*P, N, 1);
    std::vector<runtime::SegmentView> Segs =
        runtime::partition(Data, Workers);
    double SerialSec = 0;
    int64_t SerialOut = runtime::runSerialTimed(CP, Segs, &SerialSec);
    runtime::ParallelRunResult PR = runtime::runParallel(Plan, Segs);
    std::printf("serial   = %lld (%s)\nparallel = %lld (modeled %.2fX on "
                "%u workers)\n",
                (long long)SerialOut, formatSeconds(SerialSec).c_str(),
                (long long)PR.Output,
                runtime::modeledSpeedup(SerialSec, PR, Workers), Workers);
    return SerialOut == PR.Output ? 0 : 1;
  }
  if (std::strcmp(Cmd, "dist-run") == 0) {
    size_t N = 1000000;
    unsigned Workers = 4;
    unsigned Shards = 0; // 0 = pick 4 shards per worker below.
    unsigned BatchShards = 0; // 0 = the coordinator default.
    uint64_t FaultSeed = 7;
    unsigned KillPm = 0, ExitPm = 0, HangPm = 0, CorruptPm = 0;
    bool Json = false;
    InputOptions In;
    unsigned Positional = 0;
    for (int I = 3; I < argc; ++I) {
      if (In.parse(argc, argv, I))
        continue;
      NumericFlag Num(argc, argv, I);
      if (Num("--workers", &Workers) ||
          Num("--shards", &Shards) ||
          Num("--batch-shards", &BatchShards) ||
          Num("--kill-permille", &KillPm) ||
          Num("--exit-permille", &ExitPm) ||
          Num("--hang-permille", &HangPm) ||
          Num("--corrupt-permille", &CorruptPm))
        continue;
      if (std::strcmp(argv[I], "--fault-seed") == 0 && I + 1 < argc &&
          parseSeed(argv[I + 1], &FaultSeed)) {
        ++I;
        continue;
      }
      if (std::strcmp(argv[I], "--json") == 0) {
        Json = true;
        continue;
      }
      if (Positional == 0 && parseSize(argv[I], &N)) {
        ++Positional;
        continue;
      }
      return usage(argv[0]);
    }
    if (Workers == 0) {
      std::fprintf(stderr, "error: --workers must be positive\n");
      return 2;
    }
    if (Shards == 0)
      Shards = Workers * 4;
    synth::SynthesisResult R = synthOrDie(*P);
    runtime::CompiledProgram CP(*P, In.Specialize, In.Native);
    runtime::CompiledPlan Plan(*P, R.Plan, In.Specialize, In.Native);
    if (!Json)
      std::printf("tier     = %s\n", runtime::execTierName(CP.tier()));

    // A file input runs through a SegmentSource (one shard per chunk;
    // binary files let workers mmap the GRSPWB01 region directly); the
    // default generated workload is partitioned in memory.
    std::unique_ptr<runtime::SegmentSource> Src;
    std::vector<int64_t> Data;
    std::vector<runtime::SegmentView> Segs;
    double SerialSec = 0;
    int64_t SerialOut = 0;
    if (In.File) {
      try {
        runtime::SourceOptions SOpts = In.sourceOptions();
        SOpts.MinChunks = Shards;
        Src = runtime::openSegmentSource(In.File, In.Kind, SOpts,
                                         In.MaxElems);
      } catch (const std::exception &E) {
        std::fprintf(stderr, "error: %s\n", E.what());
        return 2;
      }
      N = Src->elements();
      if (!Json)
        std::printf("source   = %s (%llu elements, %zu chunks)\n",
                    Src->kind(), (unsigned long long)Src->elements(),
                    Src->chunkCount());
      SerialOut = runtime::runSerialSourceTimed(CP, *Src, &SerialSec);
    } else {
      Data = runtime::generateWorkload(*P, N, 1);
      Segs = runtime::partition(Data, Shards);
      SerialOut = runtime::runSerialTimed(CP, Segs, &SerialSec);
    }

    // Any nonzero permille arms the REAL fault sites: worker processes
    // consult the (fork-inherited) injector and genuinely _exit(137),
    // SIGKILL themselves, hang, or corrupt their reply frame.
    bool Chaos = KillPm || ExitPm || HangPm || CorruptPm;
    FaultInjector Injector(FaultSeed);
    dist::DistConfig DC;
    DC.Workers = Workers;
    if (BatchShards)
      DC.BatchShards = BatchShards;
    DC.BackoffJitterSeed = FaultSeed;
    DC.Token = installSignalSource();
    if (Chaos) {
      DC.Faults = &Injector;
      // Tight deadlines bound the wall-clock cost of injected hangs;
      // a generous restart budget keeps recovery distributed instead
      // of degrading to serial refolds.
      DC.TaskDeadlineSeconds = 0.05;
      DC.MaxWorkerRestarts = 100000;
      auto armSite = [&](const char *Site, unsigned Permille) {
        FaultSpec Spec;
        Spec.Probability = Permille / 1000.0;
        Injector.arm(Site, Spec);
      };
      armSite(dist::SiteWorkerKill, KillPm);
      armSite(dist::SiteWorkerExit, ExitPm);
      armSite(dist::SiteWorkerHang, HangPm);
      armSite(dist::SiteFrameCorrupt, CorruptPm);
      if (!Json)
        std::printf("faults   = seed %llu, permille kill=%u exit=%u "
                    "hang=%u corrupt=%u\n",
                    (unsigned long long)FaultSeed, KillPm, ExitPm, HangPm,
                    CorruptPm);
    }

    dist::DistCoordinator Coord(Plan, DC);
    dist::DistRunReport Rep = Src ? Coord.run(*Src) : Coord.run(Segs);
    if (Rep.Cancelled) {
      std::printf("cancelled before merge commit\n");
      if (int Sig = signalExitCode())
        return Sig;
      return 130;
    }
    bool Match = SerialOut == Rep.Output;
    if (Json) {
      // Machine-readable report: one object, stable keys, suitable for
      // CI assertions and the bench_baseline.sh artifact.
      std::printf(
          "{\n"
          "  \"benchmark\": \"%s\",\n"
          "  \"n\": %llu,\n"
          "  \"workers\": %u,\n"
          "  \"shards\": %u,\n"
          "  \"transport\": \"%s\",\n"
          "  \"output\": %lld,\n"
          "  \"serial\": %lld,\n"
          "  \"match\": %s,\n"
          "  \"serial_seconds\": %.6f,\n"
          "  \"wall_seconds\": %.6f,\n"
          "  \"publish_seconds\": %.6f,\n"
          "  \"stripes\": %u,\n"
          "  \"merge_seconds\": %.6f,\n"
          "  \"recovery_seconds\": %.6f,\n"
          "  \"bytes_shipped\": %llu,\n"
          "  \"bytes_mapped\": %llu,\n"
          "  \"bytes_shipped_per_elem\": %.4f,\n"
          "  \"task_frames\": %u,\n"
          "  \"publish_frames\": %u,\n"
          "  \"shards_completed\": %u,\n"
          "  \"workers_spawned\": %u,\n"
          "  \"workers_killed\": %u,\n"
          "  \"workers_exited\": %u,\n"
          "  \"workers_restarted\": %u,\n"
          "  \"shards_reassigned\": %u,\n"
          "  \"speculative_launches\": %u,\n"
          "  \"speculative_wins\": %u,\n"
          "  \"corrupt_frames\": %u,\n"
          "  \"hangs_detected\": %u,\n"
          "  \"serial_refolds\": %u,\n"
          "  \"retries\": %u\n"
          "}\n",
          argv[2], (unsigned long long)N, Workers, Rep.Shards,
          Rep.UsedShm ? "shm" : "serial", (long long)Rep.Output,
          (long long)SerialOut, Match ? "true" : "false", SerialSec,
          Rep.WallSeconds, Rep.PublishSeconds, Rep.Stripes, Rep.MergeSeconds,
          Rep.RecoverySeconds,
          (unsigned long long)Rep.BytesShipped,
          (unsigned long long)Rep.BytesMapped,
          N ? (double)Rep.BytesShipped / (double)N : 0.0, Rep.TaskFrames,
          Rep.PublishFrames, Rep.ShardsCompleted, Rep.WorkersSpawned,
          Rep.WorkersKilled, Rep.WorkersExited, Rep.WorkersRestarted,
          Rep.ShardsReassigned, Rep.SpeculativeLaunches,
          Rep.SpeculativeWins, Rep.CorruptFrames, Rep.HangsDetected,
          Rep.SerialRefolds, Rep.Retries);
    } else {
      std::printf("serial   = %lld (%s)\ndist     = %lld over %u shard(s) "
                  "on %u worker(s)\n%s\n",
                  (long long)SerialOut, formatSeconds(SerialSec).c_str(),
                  (long long)Rep.Output, Rep.Shards, Workers,
                  Rep.describe().c_str());
    }
    if (!Match) {
      std::fprintf(stderr, "error: MISMATCH: dist=%lld serial=%lld\n",
                   (long long)Rep.Output, (long long)SerialOut);
      return 1;
    }
    return 0;
  }
  if (std::strcmp(Cmd, "stream") == 0) {
    InputOptions In;
    for (int I = 3; I < argc; ++I)
      if (!In.parse(argc, argv, I))
        return usage(argv[0]);
    synth::SynthesisResult R = synthOrDie(*P);
    runtime::CompiledPlan Plan(*P, R.Plan, In.Specialize, In.Native);
    runtime::MergeTree Tree(Plan);

    // The current stream contents, for `edit` bounds and `verify`:
    // untouched initial-file chunks stay on disk (re-read through the
    // source only when verify materializes them); edits and appends
    // live in these maps. Only verify ever holds the whole stream.
    std::unique_ptr<runtime::SegmentSource> Src;
    std::map<size_t, std::vector<int64_t>> Edits;
    std::vector<std::vector<int64_t>> Appended;
    size_t FileChunks = 0;

    if (In.File) {
      try {
        Src = runtime::openSegmentSource(In.File, In.Kind, In.sourceOptions(),
                                         In.MaxElems);
        std::unique_ptr<runtime::SegmentCursor> C = Src->cursor();
        for (size_t I = 0; I != Src->chunkCount(); ++I)
          Tree.append(C->chunk(I));
        FileChunks = Src->chunkCount();
      } catch (const std::exception &E) {
        std::fprintf(stderr, "error: %s\n", E.what());
        return 2;
      }
      std::printf("loaded %llu element(s) from %s (%s source, %zu "
                  "chunks)\n",
                  (unsigned long long)Src->elements(), In.File,
                  Src->kind(), FileChunks);
    }

    auto chunkData = [&](size_t I) -> std::vector<int64_t> {
      std::map<size_t, std::vector<int64_t>>::const_iterator It =
          Edits.find(I);
      if (It != Edits.end())
        return It->second;
      if (I < FileChunks) {
        std::unique_ptr<runtime::SegmentCursor> C = Src->cursor();
        runtime::SegmentView V = C->chunk(I);
        return std::vector<int64_t>(V.Data, V.Data + V.Size);
      }
      return Appended[I - FileChunks];
    };

    // Every malformed line gets a typed one-line diagnostic
    // (error[code]: ...) and the session keeps going; the codes are the
    // stable surface scripted drivers match on. A piped session that
    // hits EOF without an explicit `quit` exits nonzero — the driver's
    // input was truncated mid-conversation and silence would hide it.
    bool SawQuit = false;
    std::string Line;
    while (std::getline(std::cin, Line)) {
      std::istringstream In(Line);
      std::string Op;
      if (!(In >> Op) || Op[0] == '#')
        continue;
      try {
        if (Op == "quit") {
          SawQuit = true;
          break;
        }
        if (Op == "append" || Op == "edit") {
          size_t Idx = 0;
          if (Op == "edit" && !(In >> Idx)) {
            std::printf("error[bad-index]: edit expects a numeric chunk "
                        "index\n");
            continue;
          }
          std::vector<int64_t> Vals;
          int64_t V;
          while (In >> V)
            Vals.push_back(V);
          if (Vals.empty() || !In.eof()) {
            std::printf("error[bad-element]: %s expects integer "
                        "elements\n",
                        Op.c_str());
            continue;
          }
          runtime::SegmentView View = {Vals.data(), Vals.size()};
          if (Op == "append") {
            Tree.append(View);
            Appended.push_back(std::move(Vals));
            std::printf("ok: chunk %zu appended (%zu combine(s))\n",
                        Tree.chunks() - 1, Tree.lastUpdateCombines());
          } else {
            Tree.replace(Idx, View);
            Edits[Idx] = std::move(Vals);
            std::printf("ok: chunk %zu replaced (%zu combine(s))\n", Idx,
                        Tree.lastUpdateCombines());
          }
        } else if (Op == "query") {
          std::printf("query = %lld\n", (long long)Tree.query());
        } else if (Op == "verify") {
          // Ground truth: materialize the whole current stream once and
          // fold it flat through the reference interpreter.
          std::vector<int64_t> Flat;
          Flat.reserve(Tree.elements());
          for (size_t I = 0; I != Tree.chunks(); ++I) {
            std::vector<int64_t> C = chunkData(I);
            Flat.insert(Flat.end(), C.begin(), C.end());
          }
          int64_t Want = lang::runSerial(*P, Flat);
          int64_t Got = Tree.query();
          if (Want == Got)
            std::printf("verify ok: %lld (%llu elements)\n", (long long)Got,
                        (unsigned long long)Tree.elements());
          else
            std::printf("verify MISMATCH: tree=%lld refold=%lld\n",
                        (long long)Got, (long long)Want);
        } else if (Op == "stats") {
          std::printf("chunks=%zu elements=%llu\n", Tree.chunks(),
                      (unsigned long long)Tree.elements());
        } else {
          std::printf("error[unknown-command]: '%s' (append/edit/query/"
                      "verify/stats/quit)\n",
                      Op.c_str());
        }
      } catch (const std::exception &E) {
        std::printf("error[runtime]: %s\n", E.what());
      }
      std::fflush(stdout);
    }
    // Interactive Ctrl-D is a normal goodbye; a script whose piped input
    // ran out before `quit` was cut off mid-command stream.
    if (!SawQuit && !isatty(STDIN_FILENO)) {
      std::fflush(stdout);
      std::fprintf(stderr, "error[eof]: input ended without 'quit'\n");
      return 1;
    }
    return 0;
  }
  if (std::strcmp(Cmd, "emit-cpp") == 0) {
    synth::SynthesisResult R = synthOrDie(*P);
    std::string Code = codegen::emitStandaloneCpp(*P, R.Plan);
    if (Code.empty()) {
      std::fprintf(stderr, "error: plan not supported by the emitter\n");
      return 1;
    }
    std::fputs(Code.c_str(), stdout);
    return 0;
  }
  if (std::strcmp(Cmd, "emit-mr") == 0) {
    synth::SynthesisResult R = synthOrDie(*P);
    std::string Code = codegen::emitMapReduceCpp(*P, R.Plan);
    if (Code.empty()) {
      std::fprintf(stderr, "error: only order-insensitive no-prefix "
                           "plans translate to MapReduce\n");
      return 1;
    }
    std::fputs(Code.c_str(), stdout);
    return 0;
  }
  if (std::strcmp(Cmd, "emit-chc") == 0) {
    synth::SynthesisResult R = synthOrDie(*P);
    std::string Text = chc::chcToSmtlib(*P, R.Plan);
    if (Text.empty()) {
      std::fprintf(stderr, "error: plan not encodable as CHCs\n");
      return 1;
    }
    std::fputs(Text.c_str(), stdout);
    return 0;
  }
  if (std::strcmp(Cmd, "certify") == 0) {
    synth::SynthesisResult R = synthOrDie(*P);
    chc::CertifyOptions Opts;
    if (argc > 3 && !parseUnsigned(argv[3], &Opts.TimeoutMs)) {
      std::fprintf(stderr, "error: certify expects a numeric timeout in "
                           "milliseconds, got '%s'\n",
                   argv[3]);
      return 2;
    }
    chc::CertifyOutcome C = chc::certify(*P, R.Plan, Opts);
    std::printf("%s: %s in %s (%u variables)\n", P->Name.c_str(),
                chc::certStatusName(C.Status),
                formatSeconds(C.Seconds).c_str(), C.NumVars);
    return C.Status == chc::CertStatus::Certified ? 0 : 1;
  }
  return usage(argv[0]);
}
