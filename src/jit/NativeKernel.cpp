//===- jit/NativeKernel.cpp ------------------------------------------------=//

#include "jit/NativeKernel.h"

#include "support/ChildProc.h"

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include <dlfcn.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace grassp {
namespace jit {

namespace {

void hashBytes(uint64_t &H, const void *P, size_t N) {
  const unsigned char *B = static_cast<const unsigned char *>(P);
  for (size_t I = 0; I != N; ++I) {
    H ^= B[I];
    H *= 1099511628211ull; // FNV-1a 64 prime.
  }
}

void hashU64(uint64_t &H, uint64_t V) { hashBytes(H, &V, sizeof(V)); }

std::string hexHash(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)H);
  return Buf;
}

std::string defaultCacheDir() {
  if (const char *Env = std::getenv("GRASSP_JIT_CACHE_DIR"))
    if (*Env)
      return Env;
  return tempRootDir() + "/grassp-jit-cache-" + std::to_string(::getuid());
}

/// Last lines of \p Path, flattened to one line for error messages.
std::string fileTail(const std::string &Path, size_t MaxLines = 4) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  std::string L;
  while (std::getline(In, L))
    if (!L.empty())
      Lines.push_back(L);
  std::string Out;
  size_t First = Lines.size() > MaxLines ? Lines.size() - MaxLines : 0;
  for (size_t I = First; I != Lines.size(); ++I) {
    if (!Out.empty())
      Out += " | ";
    Out += Lines[I];
  }
  return Out;
}

} // namespace

uint64_t bytecodeHash(const ir::BytecodeFunction &F, uint64_t Version) {
  uint64_t H = 1469598103934665603ull; // FNV-1a 64 offset basis.
  hashU64(H, Version);
  hashU64(H, F.numInputs());
  hashU64(H, F.numRegs());
  hashU64(H, F.numOutputs());
  for (uint16_t R : F.outputRegs())
    hashU64(H, R);
  for (const ir::BcInstr &I : F.instrs()) {
    hashU64(H, static_cast<uint64_t>(I.Opcode));
    hashU64(H, I.Dst);
    hashU64(H, I.A);
    hashU64(H, I.B);
    hashU64(H, I.C);
    hashU64(H, static_cast<uint64_t>(I.Imm));
  }
  return H;
}

std::string emitFoldKernelCpp(const ir::BytecodeFunction &F, uint64_t Hash) {
  assert(F.numOutputs() + 1 == F.numInputs() &&
         "fold kernels expect inputs = state fields + element");
  const unsigned NF = F.numOutputs();
  std::ostringstream OS;
  auto reg = [](unsigned R) { return "R" + std::to_string(R); };

  OS << "// Generated fold kernel; bytecode hash " << hexHash(Hash)
     << ".\n"
        "#include <cstdint>\n"
        "#include <cstddef>\n"
        "\n"
        "namespace {\n"
        "// Total floor-division / Euclidean-remainder semantics of the\n"
        "// bytecode VM (x/0 = x%0 = 0; -fwrapv makes INT64_MIN/-1 wrap).\n"
        "inline int64_t g_fdiv(int64_t A, int64_t B) {\n"
        "  if (B == 0) return 0;\n"
        "  if (B == -1) return -A;\n"
        "  int64_t Q = A / B;\n"
        "  if (A % B != 0 && ((A < 0) != (B < 0))) --Q;\n"
        "  return Q;\n"
        "}\n"
        "inline int64_t g_emod(int64_t A, int64_t B) {\n"
        "  if (B == 0 || B == -1) return 0;\n"
        "  int64_t M = A % B;\n"
        "  if (M < 0) M += (B < 0 ? -B : B);\n"
        "  return M;\n"
        "}\n"
        "// Mask blend C ? T : F. The empty asm hides the mask's origin, so\n"
        "// the compiler cannot turn the blend back into a branch on C.\n"
        "inline int64_t g_sel(int64_t C, int64_t T, int64_t F) {\n"
        "  int64_t M = -static_cast<int64_t>(C != 0);\n"
        "  __asm__(\"\" : \"+r\"(M));\n"
        "  return ((T ^ F) & M) ^ F;\n"
        "}\n"
        "} // namespace\n"
        "\n"
        "extern \"C\" void grassp_fold_k"
     << hexHash(Hash)
     << "(const int64_t *Data, size_t N, int64_t *State) {\n";
  // The whole register file lives in locals across the loop: state
  // fields load once, temporaries start at 0 (well-formed bytecode
  // defines every temp before reading it each iteration anyway).
  for (unsigned R = 0; R != F.numRegs(); ++R) {
    OS << "  int64_t " << reg(R) << " = ";
    if (R < NF)
      OS << "State[" << R << "];\n";
    else
      OS << "0;\n";
  }
  OS << "  for (size_t I = 0; I != N; ++I) {\n"
     << "    " << reg(NF) << " = Data[I];\n";
  for (const ir::BcInstr &I : F.instrs()) {
    OS << "    " << reg(I.Dst) << " = ";
    const std::string A = reg(I.A), B = reg(I.B), C = reg(I.C);
    switch (I.Opcode) {
    case ir::BcOp::Const:
      OS << "INT64_C(" << I.Imm << ")";
      break;
    case ir::BcOp::Copy:
      OS << A;
      break;
    case ir::BcOp::Add:
      OS << A << " + " << B;
      break;
    case ir::BcOp::Sub:
      OS << A << " - " << B;
      break;
    case ir::BcOp::Mul:
      OS << A << " * " << B;
      break;
    case ir::BcOp::Div:
      OS << "g_fdiv(" << A << ", " << B << ")";
      break;
    case ir::BcOp::Mod:
      OS << "g_emod(" << A << ", " << B << ")";
      break;
    case ir::BcOp::Neg:
      OS << "-" << A;
      break;
    case ir::BcOp::Min:
      OS << "(" << A << " < " << B << " ? " << A << " : " << B << ")";
      break;
    case ir::BcOp::Max:
      OS << "(" << A << " > " << B << " ? " << A << " : " << B << ")";
      break;
    case ir::BcOp::Eq:
      OS << "static_cast<int64_t>(" << A << " == " << B << ")";
      break;
    case ir::BcOp::Ne:
      OS << "static_cast<int64_t>(" << A << " != " << B << ")";
      break;
    case ir::BcOp::Lt:
      OS << "static_cast<int64_t>(" << A << " < " << B << ")";
      break;
    case ir::BcOp::Le:
      OS << "static_cast<int64_t>(" << A << " <= " << B << ")";
      break;
    case ir::BcOp::Gt:
      OS << "static_cast<int64_t>(" << A << " > " << B << ")";
      break;
    case ir::BcOp::Ge:
      OS << "static_cast<int64_t>(" << A << " >= " << B << ")";
      break;
    case ir::BcOp::And:
      OS << "static_cast<int64_t>((" << A << " != 0) & (" << B
         << " != 0))";
      break;
    case ir::BcOp::Or:
      OS << "static_cast<int64_t>((" << A << " != 0) | (" << B
         << " != 0))";
      break;
    case ir::BcOp::Not:
      OS << "static_cast<int64_t>(" << A << " == 0)";
      break;
    case ir::BcOp::Select:
      OS << "g_sel(" << A << ", " << B << ", " << C << ")";
      break;
    }
    OS << ";\n";
  }
  // Simultaneous writeback: read every output before touching a state
  // register (an output may name another field's input slot).
  for (unsigned K = 0; K != NF; ++K)
    OS << "    const int64_t S" << K << " = " << reg(F.outputRegs()[K])
       << ";\n";
  for (unsigned K = 0; K != NF; ++K)
    OS << "    " << reg(K) << " = S" << K << ";\n";
  OS << "  }\n";
  for (unsigned K = 0; K != NF; ++K)
    OS << "  State[" << K << "] = " << reg(K) << ";\n";
  OS << "}\n";
  return OS.str();
}

std::string shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S) {
    if (C == '\'')
      Out += "'\\''";
    else
      Out += C;
  }
  Out += "'";
  return Out;
}

std::string hostCxx() {
  if (const char *Env = std::getenv("CXX"))
    if (*Env)
      return Env;
  return "g++";
}

std::string tempRootDir() {
  if (const char *Env = std::getenv("TMPDIR"))
    if (*Env) {
      std::string Dir = Env;
      while (Dir.size() > 1 && Dir.back() == '/')
        Dir.pop_back();
      return Dir;
    }
  return "/tmp";
}

bool compilerWorks(const std::string &Cxx) {
  std::string Cmd = shellQuote(Cxx) + " --version > /dev/null 2>&1";
  return waitStatusOk(std::system(Cmd.c_str()));
}

bool hostCompilerAvailable() {
  static const bool Available = compilerWorks(hostCxx());
  return Available;
}

NativeKernel::~NativeKernel() {
  if (Handle)
    dlclose(Handle);
}

namespace {

std::shared_ptr<const NativeKernel> loadObject(const std::string &SoPath,
                                               uint64_t Hash,
                                               std::string *Error) {
  void *Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    if (Error)
      *Error = "dlopen failed: " + std::string(dlerror());
    return nullptr;
  }
  std::string Sym = "grassp_fold_k" + hexHash(Hash);
  void *Fn = dlsym(Handle, Sym.c_str());
  if (!Fn) {
    if (Error)
      *Error = "dlsym(" + Sym + ") failed: " + std::string(dlerror());
    dlclose(Handle);
    return nullptr;
  }
  return std::make_shared<NativeKernel>(
      Handle, reinterpret_cast<NativeKernel::FoldFn>(Fn), Hash, SoPath);
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

} // namespace

std::shared_ptr<const NativeKernel>
compileFoldKernel(const ir::BytecodeFunction &F, const JitOptions &Opts,
                  std::string *Error, bool *ReusedDisk) {
  if (ReusedDisk)
    *ReusedDisk = false;
  if (F.numOutputs() + 1 != F.numInputs()) {
    if (Error)
      *Error = "not a fold-shaped function";
    return nullptr;
  }
  const uint64_t Hash = bytecodeHash(F);
  const std::string Dir =
      Opts.CacheDir.empty() ? defaultCacheDir() : Opts.CacheDir;
  if (::mkdir(Dir.c_str(), 0700) != 0 && errno != EEXIST) {
    if (Error)
      *Error = "cannot create cache dir " + Dir;
    return nullptr;
  }
  const std::string Stem = Dir + "/k" + hexHash(Hash);
  const std::string SoPath = Stem + ".so";

  if (Opts.DiskCache && fileExists(SoPath)) {
    std::string LoadErr;
    if (auto K = loadObject(SoPath, Hash, &LoadErr)) {
      if (ReusedDisk)
        *ReusedDisk = true;
      return K;
    }
    // A stale or torn object (e.g. from a crashed writer): fall through
    // and recompile over it.
    (void)LoadErr;
  }

  const std::string Cxx = Opts.Cxx.empty() ? hostCxx() : Opts.Cxx;
  const std::string SrcPath = Stem + ".cpp";
  const std::string LogPath =
      Stem + "." + std::to_string(::getpid()) + ".log";
  const std::string TmpSo =
      Stem + "." + std::to_string(::getpid()) + ".tmp.so";
  {
    std::ofstream Out(SrcPath);
    Out << emitFoldKernelCpp(F, Hash);
    if (!Out) {
      if (Error)
        *Error = "cannot write " + SrcPath;
      return nullptr;
    }
  }
  // -fwrapv pins two's-complement wraparound, which both matches the
  // VM's de-facto semantics and lets the compiler vectorize signed
  // int64 reductions (wrapping add is associative).
  const std::string Flags = "-std=c++17 -O3 -march=native -fwrapv "
                            "-shared -fPIC";
  const std::string FallbackFlags = "-std=c++17 -O3 -fwrapv -shared -fPIC";
  auto tryCompile = [&](const std::string &F2) {
    std::string Cmd = shellQuote(Cxx) + " " + F2 + " -o " +
                      shellQuote(TmpSo) + " " + shellQuote(SrcPath) +
                      " > " + shellQuote(LogPath) + " 2>&1";
    return std::system(Cmd.c_str());
  };
  int Rc = tryCompile(Flags);
  if (!waitStatusOk(Rc))
    Rc = tryCompile(FallbackFlags); // e.g. no -march=native support.
  if (!waitStatusOk(Rc)) {
    if (Error) {
      *Error = "compile failed (" + describeWaitStatus(Rc) + ") via " +
               Cxx;
      std::string Tail = fileTail(LogPath);
      if (!Tail.empty())
        *Error += ": " + Tail;
    }
    std::remove(TmpSo.c_str());
    std::remove(LogPath.c_str());
    return nullptr;
  }
  std::remove(LogPath.c_str());
  // Atomic publish: concurrent processes compiling the same hash race
  // benignly (last rename wins; open handles keep their inode).
  if (::rename(TmpSo.c_str(), SoPath.c_str()) != 0) {
    if (Error)
      *Error = "cannot rename " + TmpSo + " to " + SoPath;
    std::remove(TmpSo.c_str());
    return nullptr;
  }
  return loadObject(SoPath, Hash, Error);
}

//===----------------------------------------------------------------------===//
// KernelCache
//===----------------------------------------------------------------------===//

struct KernelCache::Impl {
  mutable std::mutex M;
  // Negative results are cached as null entries so a failing compile is
  // attempted once per process, not once per CompiledProgram.
  std::unordered_map<uint64_t, std::shared_ptr<const NativeKernel>> Map;
  JitStats Stats;
  std::string LastError;
};

KernelCache &KernelCache::instance() {
  static KernelCache C;
  return C;
}

KernelCache::Impl &KernelCache::impl() const {
  static Impl I;
  return I;
}

std::shared_ptr<const NativeKernel>
KernelCache::getOrCompile(const ir::BytecodeFunction &F) {
  if (const char *Dis = std::getenv("GRASSP_JIT_DISABLE"))
    if (*Dis && std::string(Dis) != "0")
      return nullptr;
  if (F.numOutputs() + 1 != F.numInputs() || !hostCompilerAvailable())
    return nullptr;
  Impl &I = impl();
  const uint64_t Hash = bytecodeHash(F);
  std::lock_guard<std::mutex> Lock(I.M);
  auto It = I.Map.find(Hash);
  if (It != I.Map.end()) {
    ++I.Stats.MemoryHits;
    return It->second;
  }
  std::string Err;
  bool ReusedDisk = false;
  std::shared_ptr<const NativeKernel> K =
      compileFoldKernel(F, JitOptions(), &Err, &ReusedDisk);
  if (K) {
    ++(ReusedDisk ? I.Stats.DiskHits : I.Stats.Compiles);
  } else {
    ++I.Stats.Failures;
    I.LastError = Err;
  }
  I.Map.emplace(Hash, K);
  return K;
}

JitStats KernelCache::stats() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.M);
  return I.Stats;
}

std::string KernelCache::lastError() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.M);
  return I.LastError;
}

void KernelCache::clearMemoryCache() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.M);
  I.Map.clear();
}

} // namespace jit
} // namespace grassp
