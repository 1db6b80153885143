//===- codegen/CppCodegen.cpp ----------------------------------------------=//

#include "codegen/CppCodegen.h"
#include "codegen/ExprCpp.h"
#include "lang/Interp.h"
#include "synth/PlanEval.h"

#include <sstream>

using namespace grassp::ir;
using namespace grassp::lang;
using namespace grassp::synth;

namespace grassp {
namespace codegen {

namespace {

/// VarMap binding state fields to "<obj>.<field>" plus "in" to \p InName.
std::map<std::string, std::string> stateMap(const SerialProgram &Prog,
                                            const std::string &Obj,
                                            const std::string &InName = "") {
  std::map<std::string, std::string> M;
  for (const Field &F : Prog.State.fields())
    M[F.Name] = Obj + "." + F.Name;
  if (!InName.empty())
    M[inputVarName()] = InName;
  return M;
}

void emitStateStruct(const SerialProgram &Prog, std::ostringstream &OS) {
  OS << "struct State {\n";
  for (const Field &F : Prog.State.fields())
    OS << "  i64 " << F.Name << " = INT64_C(" << F.InitInt << ");\n";
  OS << "};\n\n";
  OS << "static void step(State &s, i64 in) {\n  State n;\n";
  std::map<std::string, std::string> M = stateMap(Prog, "s", "in");
  for (size_t I = 0; I != Prog.State.size(); ++I)
    OS << "  n." << Prog.State.field(I).Name << " = "
       << exprToCpp(Prog.Step[I], M) << ";\n";
  OS << "  s = n;\n}\n\n";
  OS << "static i64 output(const State &s) {\n  return "
     << exprToCpp(Prog.Output, stateMap(Prog, "s")) << ";\n}\n\n";
}

void emitMerge(const SerialProgram &Prog, const ParallelPlan &Plan,
               std::ostringstream &OS) {
  OS << "static State merge2(const State &a, const State &b) {\n"
        "  State r;\n";
  std::map<std::string, std::string> M;
  for (const Field &F : Prog.State.fields()) {
    M["a_" + F.Name] = "a." + F.Name;
    M["b_" + F.Name] = "b." + F.Name;
  }
  for (size_t I = 0; I != Prog.State.size(); ++I)
    OS << "  r." << Prog.State.field(I).Name << " = "
       << exprToCpp(Plan.Merge.Combine[I], M) << ";\n";
  OS << "  return r;\n}\n\n";
}

void emitWorkload(const SerialProgram &Prog, const CppEmitOptions &Opts,
                  std::ostringstream &OS) {
  // SplitMix64 plus rejection sampling, matching support/Random.h
  // exactly: generated binaries draw from the same distribution as the
  // runtime workload generators (a plain `bits % n` over-weights the
  // first 2^64 mod n values).
  OS << "static uint64_t g_rng;\n"
     << "static inline uint64_t g_next() {\n"
     << "  uint64_t z = (g_rng += 0x9e3779b97f4a7c15ull);\n"
     << "  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;\n"
     << "  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;\n"
     << "  return z ^ (z >> 31);\n"
     << "}\n"
     << "static inline uint64_t g_bounded(uint64_t n) {\n"
     << "  uint64_t t = (0 - n) % n;\n"
     << "  for (;;) { uint64_t x = g_next(); if (x >= t) return x % n; }\n"
     << "}\n\n";
  OS << "static std::vector<i64> make_workload() {\n"
     << "  std::vector<i64> d(" << Opts.NumElements << ");\n"
     << "  g_rng = " << Opts.Seed << "ull;\n"
     << "  for (auto &x : d) {\n";
  if (!Prog.InputAlphabet.empty()) {
    OS << "    static const i64 alpha[] = {";
    for (size_t I = 0; I != Prog.InputAlphabet.size(); ++I)
      OS << (I ? ", " : "") << Prog.InputAlphabet[I];
    OS << "};\n    x = alpha[g_bounded(" << Prog.InputAlphabet.size()
       << ")];\n";
  } else {
    OS << "    x = (i64)g_bounded(" << (Prog.GenHi - Prog.GenLo + 1)
       << ") + (" << Prog.GenLo << ");\n";
  }
  OS << "  }\n  return d;\n}\n\n";
  // File-input hook for the differential oracle: argv[1] names a text
  // file with one decimal element per line, optionally led by a
  // "# grassp-workload <count>" header. The parser is strict — a
  // truncated, overflowing, or junk-bearing file exits 2 with a
  // file:line diagnostic instead of silently folding a prefix (the
  // exact mirror of runtime::loadWorkloadFile).
  OS << R"CPP(static std::vector<i64> load_workload(const char *path) {
  std::FILE *f = std::fopen(path, "r");
  if (!f) { std::fprintf(stderr, "%s:0: cannot open file\n", path);
            std::exit(2); }
  std::vector<i64> d;
  char buf[256];
  unsigned long line = 0;
  int have_header = 0;
  unsigned long long declared = 0;
  while (std::fgets(buf, sizeof buf, f)) {
    ++line;
    size_t len = std::strlen(buf);
    if (len + 1 == sizeof buf && buf[len - 1] != '\n') {
      std::fprintf(stderr, "%s:%lu: line too long\n", path, line);
      std::exit(2);
    }
    while (len && (buf[len - 1] == '\n' || buf[len - 1] == '\r'))
      buf[--len] = 0;
    if (buf[0] == '#') {
      const char *tag = "# grassp-workload ";
      size_t taglen = std::strlen(tag);
      if (line != 1 || std::strncmp(buf, tag, taglen) != 0) {
        std::fprintf(stderr,
                     "%s:%lu: bad header (expected '# grassp-workload "
                     "<count>')\n", path, line);
        std::exit(2);
      }
      errno = 0;
      char *end = 0;
      declared = std::strtoull(buf + taglen, &end, 10);
      if (end == buf + taglen || *end || errno == ERANGE ||
          buf[taglen] == '-') {
        std::fprintf(stderr, "%s:%lu: malformed count in header\n",
                     path, line);
        std::exit(2);
      }
      have_header = 1;
      continue;
    }
    errno = 0;
    char *end = 0;
    long long v = std::strtoll(buf, &end, 10);
    if (len == 0 || end == buf || *end || errno == ERANGE) {
      std::fprintf(stderr,
                   "%s:%lu: malformed element '%s' (expected one decimal "
                   "int64 per line)\n", path, line, buf);
      std::exit(2);
    }
    d.push_back((i64)v);
  }
  std::fclose(f);
  if (have_header && d.size() != declared) {
    std::fprintf(stderr,
                 "%s:0: element count mismatch: header declares %llu but "
                 "file holds %llu%s\n", path, declared,
                 (unsigned long long)d.size(),
                 d.size() < declared ? " (truncated file?)" : "");
    std::exit(2);
  }
  return d;
}

)CPP";
}

void emitMainCommon(const CppEmitOptions &Opts, std::ostringstream &OS,
                    const char *WorkerCall, const char *MergeCall) {
  OS << "int main(int argc, char **argv) {\n"
     << "  const unsigned T = " << Opts.NumThreads << ";\n"
     << "  std::vector<i64> data = argc > 1 ? load_workload(argv[1])\n"
     << "                                   : make_workload();\n"
     << "  // Serial run (the specification).\n"
     << "  State ser;\n"
     << "  for (i64 x : data) step(ser, x);\n"
     << "  i64 serial_out = output(ser);\n"
     << "  // Parallel run over T contiguous segments.\n"
     << "  size_t n = data.size(), base = n / T, rem = n % T, off = 0;\n"
     << "  std::vector<size_t> lo(T), hi(T);\n"
     << "  for (unsigned i = 0; i != T; ++i) {\n"
     << "    size_t len = base + (i < rem ? 1 : 0);\n"
     << "    lo[i] = off; hi[i] = off + len; off += len;\n"
     << "  }\n"
     << "  std::vector<Worker> w(T);\n"
     << "  std::vector<std::thread> threads;\n"
     << "  for (unsigned i = 0; i != T; ++i)\n"
     << "    threads.emplace_back([&, i] { " << WorkerCall << " });\n"
     << "  for (auto &t : threads) t.join();\n"
     << "  i64 parallel_out = " << MergeCall << ";\n"
     << "  std::printf(\"serial=%lld parallel=%lld %s\\n\",\n"
     << "              (long long)serial_out, (long long)parallel_out,\n"
     << "              serial_out == parallel_out ? \"OK\" : \"MISMATCH\");\n"
     << "  return serial_out == parallel_out ? 0 : 1;\n"
     << "}\n";
}

std::string emitNoOrConstPrefix(const SerialProgram &Prog,
                                const ParallelPlan &Plan,
                                const CppEmitOptions &Opts) {
  std::ostringstream OS;
  OS << "// Generated by grassp-codegen: " << Prog.Description << "\n"
     << "// scenario: " << scenarioName(Plan.Kind) << "\n\n"
     << cppPreamble() << "\n";
  emitStateStruct(Prog, OS);
  emitMerge(Prog, Plan, OS);
  emitWorkload(Prog, Opts, OS);

  OS << "struct Worker { State d; };\n\n"
     << "static void run_worker(Worker &w, const i64 *p, size_t n) {\n"
     << "  for (size_t i = 0; i != n; ++i) step(w.d, p[i]);\n"
     << "}\n\n";
  if (Plan.Kind == Scenario::ConstPrefix)
    OS << "static const size_t PREFIX_LEN = " << Plan.PrefixLen << ";\n\n";

  // Empty segments (n < T) are dropped before merging: a d0 partial
  // state need not be neutral for a nontrivial merge, and the constant
  // prefix must be repaired from the next *non-empty* segment.
  std::ostringstream Merge;
  Merge << "[&]{\n"
        << "    std::vector<unsigned> act;\n"
        << "    for (unsigned i = 0; i != T; ++i)\n"
        << "      if (hi[i] > lo[i]) act.push_back(i);\n"
        << "    if (act.empty()) { State z; return output(z); }\n";
  if (Plan.Kind == Scenario::ConstPrefix)
    Merge << "    for (size_t k = 0; k + 1 < act.size(); ++k) {\n"
          << "      unsigned i = act[k], j = act[k + 1];\n"
          << "      size_t l = hi[j] - lo[j];\n"
          << "      if (l > PREFIX_LEN) l = PREFIX_LEN;\n"
          << "      for (size_t q = 0; q != l; ++q)\n"
          << "        step(w[i].d, data[lo[j] + q]);\n"
          << "    }\n";
  Merge << "    State acc = w[act[0]].d;\n"
        << "    for (size_t k = 1; k != act.size(); ++k)\n"
        << "      acc = merge2(acc, w[act[k]].d);\n"
        << "    return output(acc);\n  }()";
  emitMainCommon(Opts, OS, "run_worker(w[i], data.data() + lo[i], hi[i] - lo[i]);",
                 Merge.str().c_str());
  return OS.str();
}

/// Emits one assignment "<Lhs[I]> = <E[I]>;" per expression.
void emitAssignments(std::ostringstream &OS,
                     const std::vector<std::string> &Lhs,
                     const std::vector<ExprRef> &Exprs,
                     const std::map<std::string, std::string> &VarMap) {
  for (size_t I = 0; I != Exprs.size(); ++I)
    OS << "  " << Lhs[I] << " = " << exprToCpp(Exprs[I], VarMap) << ";\n";
}

/// "<Arr>[0]" .. "<Arr>[N-1]".
std::vector<std::string> elements(const std::string &Arr, size_t N) {
  std::vector<std::string> Out;
  for (size_t K = 0; K != N; ++K)
    Out.push_back(Arr + "[" + std::to_string(K) + "]");
  return Out;
}

/// The B4 translation. Its sum_step, upd and combine_boundary are
/// PlanExecutor's own terms, built over variables exactly as
/// runtime::CompiledPlan builds the functions it compiles, and rendered
/// as straight-line C++; the tables are one slot array in the order of
/// synth::SummaryLayout.
std::string emitCondPrefixSummary(const SerialProgram &Prog,
                                  const ParallelPlan &Plan,
                                  const CppEmitOptions &Opts) {
  ir::SymbolicPolicy P;
  PlanExecutor<ir::SymbolicPolicy> Exec(Prog, Plan, P);
  SummaryLayout Slots(Prog, Plan);
  ExprRef In = var(inputVarName(), TypeKind::Int);
  std::vector<std::string> SlotLvalues = elements("t", Slots.size());
  std::map<std::string, std::string> M = stateMap(Prog, "c", "in");
  for (size_t K = 0; K != Slots.size(); ++K)
    M[Slots.names()[K]] = SlotLvalues[K];

  std::ostringstream OS;
  OS << "// Generated by grassp-codegen: " << Prog.Description << "\n"
     << "// scenario: cond-prefix-summary; prefix_cond(in) = "
     << ir::toString(Plan.Cond.PrefixCond) << "\n\n"
     << cppPreamble() << "\n";
  emitStateStruct(Prog, OS);
  emitWorkload(Prog, Opts, OS);

  OS << "static inline bool prefix_cond(i64 in) { return "
     << exprToCpp(Plan.Cond.PrefixCond, M) << "; }\n\n";

  ir::ConcretePolicy CPol;
  PlanExecutor<ir::ConcretePolicy> Conc(Prog, Plan, CPol);
  std::vector<int64_t> Init = Slots.flatten(Conc.runWorker({}));
  OS << "// The prefix summary's table slots, as a worker starts them.\n"
     << "static const int NS = " << Slots.size() << ";\n"
     << "static const i64 INIT_TABLES[NS > 0 ? NS : 1] = {";
  for (size_t K = 0; K != Init.size(); ++K)
    OS << (K ? ", " : "") << Init[K];
  OS << "};\n\n";

  // The prefix step: stepWorker before any boundary, tables as variables.
  synth::WorkerResult<ir::SymbolicPolicy> W = Exec.runWorker({});
  Slots.unflatten(Slots.vars(), W);
  Exec.stepWorker(W, In);
  OS << "// The synthesized sum, applied online while scanning the prefix.\n"
     << "static void sum_step(i64 *t, i64 in) {\n"
     << "  i64 n[NS > 0 ? NS : 1];\n";
  emitAssignments(OS, elements("n", Slots.size()), Slots.flatten(W), M);
  OS << "  std::memcpy(t, n, sizeof n);\n}\n\n";

  OS << R"(struct Worker {
  bool found = false;
  i64 boundary = 0;
  State d;
  i64 t[NS > 0 ? NS : 1];
};

static void run_worker(Worker &w, const i64 *p, size_t n) {
  std::memcpy(w.t, INIT_TABLES, sizeof w.t);
  size_t i = 0;
  for (; i != n && !prefix_cond(p[i]); ++i) sum_step(w.t, p[i]);
  if (i != n) {
    w.found = true;
    w.boundary = p[i];
    for (; i != n; ++i) step(w.d, p[i]); // suffix incl. boundary
  }
}

)";

  StateVec<ir::SymbolicPolicy> C = freshState(Prog, ""),
                               D = freshState(Prog, "w_d_");
  OS << "// The synthesized upd: applies a prefix summary to the carried "
        "state.\n"
     << "static void upd(State &c, const i64 *t) {\n  State r;\n";
  std::vector<std::string> Result;
  for (const Field &F : Prog.State.fields())
    Result.push_back("r." + F.Name);
  emitAssignments(OS, Result, materializeUpdExprs(Prog, Plan), M);
  OS << "  c = r;\n}\n\n";

  for (const Field &F : Prog.State.fields())
    M["w_d_" + F.Name] = "d." + F.Name;
  OS << "// Crossing boundary element in: f on the carried state, then the\n"
     << "// per-flavor combine with the worker's suffix fold d.\n"
     << "static void combine_boundary(State &c, const State &d, i64 in) {\n"
     << "  State r;\n";
  emitAssignments(OS, Result, scalarTerms(Exec.crossBoundary(C, In, D)), M);
  OS << "  c = r;\n}\n\n";

  OS << "static i64 merge_all(const std::vector<Worker> &w) {\n"
     << "  State c;\n"
     << "  for (const Worker &x : w) {\n"
     << "    upd(c, x.t);\n"
     << "    if (x.found) combine_boundary(c, x.d, x.boundary);\n"
     << "  }\n  return output(c);\n}\n\n";
  emitMainCommon(Opts, OS,
                 "run_worker(w[i], data.data() + lo[i], hi[i] - lo[i]);",
                 "merge_all(w)");
  return OS.str();
}

} // namespace

std::string emitStandaloneCpp(const SerialProgram &Prog,
                              const ParallelPlan &Plan,
                              const CppEmitOptions &Opts) {
  if (Prog.State.hasBag()) {
    // The distinct-elements benchmark: emit the set-based translation.
    std::ostringstream OS;
    OS << "// Generated by grassp-codegen: " << Prog.Description << "\n"
       << cppPreamble() << "#include <unordered_set>\n\n";
    emitWorkload(Prog, Opts, OS);
    OS << "struct Worker { std::unordered_set<i64> seen; };\n"
       << "static void run_worker(Worker &w, const i64 *p, size_t n) {\n"
       << "  for (size_t i = 0; i != n; ++i) w.seen.insert(p[i]);\n}\n\n"
       << "int main(int argc, char **argv) {\n"
       << "  const unsigned T = " << Opts.NumThreads << ";\n"
       << "  std::vector<i64> data = argc > 1 ? load_workload(argv[1])\n"
       << "                                   : make_workload();\n"
       << "  std::unordered_set<i64> ser(data.begin(), data.end());\n"
       << "  i64 serial_out = (i64)ser.size();\n"
       << "  size_t n = data.size(), base = n / T, rem = n % T, off = 0;\n"
       << "  std::vector<size_t> lo(T), hi(T);\n"
       << "  for (unsigned i = 0; i != T; ++i) {\n"
       << "    size_t len = base + (i < rem ? 1 : 0);\n"
       << "    lo[i] = off; hi[i] = off + len; off += len;\n  }\n"
       << "  std::vector<Worker> w(T);\n"
       << "  std::vector<std::thread> threads;\n"
       << "  for (unsigned i = 0; i != T; ++i)\n"
       << "    threads.emplace_back([&, i] {"
       << " run_worker(w[i], data.data() + lo[i], hi[i] - lo[i]); });\n"
       << "  for (auto &t : threads) t.join();\n"
       << "  std::unordered_set<i64> all;\n"
       << "  for (auto &x : w) all.insert(x.seen.begin(), x.seen.end());\n"
       << "  i64 parallel_out = (i64)all.size();\n"
       << "  std::printf(\"serial=%lld parallel=%lld %s\\n\",\n"
       << "              (long long)serial_out, (long long)parallel_out,\n"
       << "              serial_out == parallel_out ? \"OK\" : \"MISMATCH\");\n"
       << "  return serial_out == parallel_out ? 0 : 1;\n}\n";
    return OS.str();
  }
  switch (Plan.Kind) {
  case Scenario::NoPrefix:
  case Scenario::ConstPrefix:
    return emitNoOrConstPrefix(Prog, Plan, Opts);
  case Scenario::CondPrefixSummary:
    return emitCondPrefixSummary(Prog, Plan, Opts);
  case Scenario::CondPrefixRefold:
    return "";
  }
  return "";
}

std::string emitMapReduceCpp(const SerialProgram &Prog,
                             const ParallelPlan &Plan) {
  if (Plan.Kind != Scenario::NoPrefix || Plan.Merge.Refold ||
      Prog.State.hasBag())
    return "";
  std::ostringstream OS;
  OS << "// Generated by grassp-codegen (Hadoop-streaming style): "
     << Prog.Description << "\n"
     << cppPreamble() << "#include <cstring>\n\n";
  emitStateStruct(Prog, OS);
  emitMerge(Prog, Plan, OS);
  OS << R"(static void print_state(const State &s) {
)";
  OS << "  std::printf(\"";
  for (size_t I = 0; I != Prog.State.size(); ++I)
    OS << (I ? " " : "") << "%lld";
  OS << "\\n\"";
  for (size_t I = 0; I != Prog.State.size(); ++I)
    OS << ", (long long)s." << Prog.State.field(I).Name;
  OS << ");\n}\n\n";
  OS << "static bool read_state(State &s) {\n  long long ";
  for (size_t I = 0; I != Prog.State.size(); ++I)
    OS << (I ? ", " : "") << "v" << I;
  OS << ";\n  if (std::scanf(\"";
  for (size_t I = 0; I != Prog.State.size(); ++I)
    OS << (I ? " " : "") << "%lld";
  OS << "\"";
  for (size_t I = 0; I != Prog.State.size(); ++I)
    OS << ", &v" << I;
  OS << ") != " << Prog.State.size() << ") return false;\n";
  for (size_t I = 0; I != Prog.State.size(); ++I)
    OS << "  s." << Prog.State.field(I).Name << " = v" << I << ";\n";
  OS << "  return true;\n}\n\n";
  OS << R"(int main(int argc, char **argv) {
  if (argc == 2 && std::strcmp(argv[1], "--map") == 0) {
    State s;
    long long v;
    while (std::scanf("%lld", &v) == 1) step(s, (i64)v);
    print_state(s);
    return 0;
  }
  if (argc == 2 && std::strcmp(argv[1], "--reduce") == 0) {
    State acc;
    bool first = true;
    State s;
    while (read_state(s)) {
      acc = first ? s : merge2(acc, s);
      first = false;
    }
    std::printf("%lld\n", (long long)output(acc));
    return 0;
  }
  std::fprintf(stderr, "usage: %s --map | --reduce\n", argv[0]);
  return 2;
}
)";
  return OS.str();
}

} // namespace codegen
} // namespace grassp
