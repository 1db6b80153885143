//===- jit/NativeKernel.h - Compile optimized bytecode to native code ----===//
//
// The fourth execution tier: optimized fold bytecode (post-BytecodeOpt)
// is lowered to a self-contained C++ translation unit, compiled by the
// host compiler into a shared object, dlopen'd, and called directly.
// One compiled kernel replaces the loop-resident VM's dispatch entirely,
// so automaton-style steps that fall off the pattern specializer still
// run at compiled-loop speed.
//
// Lowering is deliberately branch-free: Select becomes a two's-complement
// mask blend and And/Or/Not/comparisons are materialized as 0/1 integer
// arithmetic. The blend's mask passes through an empty-asm optimization
// barrier; without it GCC -O3 recovers the condition from the mask and
// if-converts the blend back into a data-dependent branch, which
// mispredicts about once per element on unpredictable guards.
//
// Kernels are cached at two levels, keyed by a canonical FNV-1a hash of
// the optimized bytecode (instructions, register geometry, output
// registers, emitter version):
//
//  * a process-wide in-memory map (KernelCache), so every
//    CompiledProgram over the same step shares one dlopen handle;
//  * an on-disk object cache ($GRASSP_JIT_CACHE_DIR, default
//    <tempRootDir()>/grassp-jit-cache-<uid>), written via temp-file +
//    atomic
//    rename so concurrent processes never load a torn object. Repeated
//    runs and synth-all sweeps skip the host compiler entirely.
//
// Everything degrades gracefully: no host compiler (probe honors $CXX,
// falls back to g++), a failing compile, or GRASSP_JIT_DISABLE=1 simply
// yields no kernel, and tier selection falls back to Specialized/LoopVM.
// All std::system results are decoded through support/ChildProc's
// wait-status helpers so a crashed compiler is reported, not mistaken
// for "unavailable".
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_JIT_NATIVEKERNEL_H
#define GRASSP_JIT_NATIVEKERNEL_H

#include "ir/Bytecode.h"

#include <cstdint>
#include <memory>
#include <string>

namespace grassp {
namespace jit {

/// Bumped whenever the emitted code or compile flags change meaning.
constexpr uint64_t EmitterVersion = 2;

/// Canonical content hash of a bytecode function (instructions, register
/// geometry, outputs) plus \p Version, so stale on-disk objects from an
/// older lowering are never reused.
uint64_t bytecodeHash(const ir::BytecodeFunction &F,
                      uint64_t Version = EmitterVersion);

/// The C++ translation unit for \p F's fold loop. \p F must be
/// fold-shaped (numOutputs() + 1 == numInputs()); the exported symbol is
/// grassp_fold_k<hash in hex>.
std::string emitFoldKernelCpp(const ir::BytecodeFunction &F, uint64_t Hash);

/// Single-quotes \p S for /bin/sh (embedded quotes included), so paths
/// with spaces or metacharacters survive std::system.
std::string shellQuote(const std::string &S);

/// The host C++ compiler: $CXX when set and non-empty, g++ otherwise.
std::string hostCxx();

/// Scratch root for process-generated files: $TMPDIR when set and
/// non-empty (trailing slashes trimmed), /tmp otherwise. Shared by the
/// jit disk cache and the oracle's scratch dirs so no component
/// hardcodes /tmp.
std::string tempRootDir();

/// Un-cached probe: does \p Cxx run `--version` successfully?
bool compilerWorks(const std::string &Cxx);

/// Cached probe of hostCxx(); shared by the native tier and the
/// differential oracle's emitted-binary path.
bool hostCompilerAvailable();

/// Knobs for compileFoldKernel; default-constructed options use the
/// host compiler and the default disk cache directory.
struct JitOptions {
  /// Compiler binary; empty means hostCxx().
  std::string Cxx;
  /// Object-cache directory; empty means $GRASSP_JIT_CACHE_DIR or
  /// <tempRootDir()>/grassp-jit-cache-<uid>.
  std::string CacheDir;
  /// Reuse (and populate) the on-disk object cache.
  bool DiskCache = true;
};

/// A dlopen'd fold kernel. fold() matches the LoopVM tier's contract:
/// fold State over Data in place. The dlopen handle is closed when the
/// last shared_ptr drops.
class NativeKernel {
public:
  using FoldFn = void (*)(const int64_t *Data, size_t N, int64_t *State);

  NativeKernel(void *Handle, FoldFn Fn, uint64_t Hash, std::string SoPath)
      : Handle(Handle), Fn(Fn), Hash(Hash), SoPath(std::move(SoPath)) {}
  ~NativeKernel();
  NativeKernel(const NativeKernel &) = delete;
  NativeKernel &operator=(const NativeKernel &) = delete;

  void fold(int64_t *State, const int64_t *Data, size_t N) const {
    Fn(Data, N, State);
  }
  uint64_t hash() const { return Hash; }
  const std::string &objectPath() const { return SoPath; }

private:
  void *Handle;
  FoldFn Fn;
  uint64_t Hash;
  std::string SoPath;
};

/// Emit + compile + dlopen \p F, consulting the disk cache per \p Opts.
/// Returns null on any failure with the reason in \p Error (compile rc
/// decoded, cc log tail included). \p ReusedDisk reports whether an
/// already-compiled object was loaded instead of invoking the compiler.
std::shared_ptr<const NativeKernel>
compileFoldKernel(const ir::BytecodeFunction &F, const JitOptions &Opts,
                  std::string *Error, bool *ReusedDisk = nullptr);

struct JitStats {
  unsigned long MemoryHits = 0;
  unsigned long DiskHits = 0;
  unsigned long Compiles = 0;
  unsigned long Failures = 0;
};

/// Process-wide kernel cache: one dlopen handle per bytecode hash,
/// negative results remembered so a failing compile is attempted once.
/// Thread-safe; getOrCompile returns null (and the caller falls back to
/// the loop VM) when no compiler is available, GRASSP_JIT_DISABLE is
/// set, or the compile failed.
class KernelCache {
public:
  static KernelCache &instance();

  std::shared_ptr<const NativeKernel>
  getOrCompile(const ir::BytecodeFunction &F);

  JitStats stats() const;
  /// Last compile failure ("" when none); for diagnostics and tests.
  std::string lastError() const;
  /// Drops the in-memory map (live kernels stay valid through their
  /// shared_ptrs); the next getOrCompile re-reads the disk cache. Test
  /// hook for exercising the disk-hit path in-process.
  void clearMemoryCache();

private:
  KernelCache() = default;
  struct Impl;
  Impl &impl() const;
};

} // namespace jit
} // namespace grassp

#endif // GRASSP_JIT_NATIVEKERNEL_H
