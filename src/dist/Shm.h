//===- dist/Shm.h - Shared-memory shard transport for the dist runtime ---===//
//
// The dist runtime's only shard transport. The coordinator publishes
// the whole input ONCE as a read-only region and Task frames carry
// only descriptors — (generation, stripe, element offset, count).
// Workers mmap the referenced window, fold it in place, and unmap.
//
// A region is a table of STRIPES, each a contiguous run of whole shards
// behind its own fd. Two ways a region comes to exist:
//
//   * file-backed binary SegmentSources: the workload file already IS
//     the region (GRSPWB01: 16-byte header, then LE int64 words), so
//     the coordinator publishes one stripe — the source's O_RDONLY fd
//     and the byte offset of element 0. Nothing is copied at all;
//   * every other input (in-memory segments, vector and text sources):
//     the coordinator splits the shards into S stripes of about equal
//     bytes and writes each into its own memfd, one thread per stripe
//     (a single shmem file serializes concurrent writers on its inode
//     lock; separate files do not). Each stripe is then sealed
//     (F_SEAL_WRITE|F_SEAL_SHRINK|F_SEAL_GROW), so the bytes workers
//     map are immutable by construction — a sealed memfd cannot be
//     rewritten by anyone, including the publisher.
//
// A region's fds reach a worker one way: a Publish frame that carries
// every stripe fd over the socket via SCM_RIGHTS, sent before the
// worker's first descriptor of that generation. A worker forked while
// a region is published does not keep the parent's copies (the pool
// body closes them), so the table it folds from is always the one it
// was sent. The worker validates every descriptor's generation and
// stripe against that table and dies loudly (StaleMapExitStatus) on a
// mismatch — a stale mapping must never be silently folded.
//
// Publication can fail (no sealable memfd on this kernel, or no free
// descriptor). There is no second transport: the coordinator then
// refolds every shard serially in-process and reports UsedShm=false.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_DIST_SHM_H
#define GRASSP_DIST_SHM_H

#include "runtime/SegmentSource.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace grassp {
namespace dist {

/// Exit status a worker dies with when a Task descriptor references a
/// mapping generation, stripe or window it does not hold, or when a
/// Publish frame's fds do not match its stripe table. Stale mappings
/// fail loudly: the coordinator decodes this as a worker fault,
/// requeues the shard, and the respawned worker is sent the current
/// mapping.
inline constexpr int StaleMapExitStatus = 113;

/// One stripe of a published region: a run of whole shards behind one
/// fd.
struct ShmStripe {
  int Fd = -1;
  /// Byte offset of the stripe's element 0 within Fd (0 for memfds,
  /// BinaryWorkloadHeaderBytes for GRSPWB01 files).
  uint64_t ByteOffset = 0;
  /// Elements the stripe holds; every descriptor into it must satisfy
  /// Offset + Count <= Elems.
  uint64_t Elems = 0;
};

/// One published read-only input region, as seen by either side.
struct ShmRegion {
  /// The stripe table; a descriptor's stripe index points into it.
  /// Its fds belong to the region: memfds the coordinator created, the
  /// dup of a workload file's fd, or fds a worker received over
  /// SCM_RIGHTS.
  std::vector<ShmStripe> Stripes;
  /// Monotonic per-coordinator publication counter; descriptor
  /// validation is generation equality, so a worker holding last run's
  /// mapping can never fold this run's descriptors.
  uint64_t Generation = 0;

  bool valid() const { return !Stripes.empty(); }
  /// Closes the fds; resets to the invalid state.
  void reset();
};

/// True when this host can create sealed memfds (probed once, cached).
/// False means a run without a file region refolds serially in the
/// coordinator.
bool shmTransportAvailable();

/// Creates an anonymous sealable memfd. Returns -1 when unavailable.
int shmCreateBuffer();

/// Appends \p N bytes to the buffer fd (loops over partial writes).
bool shmAppend(int Fd, const void *Data, size_t N);

/// Seals the buffer against write/shrink/grow. After this returns true
/// the bytes workers will map are immutable system-wide.
bool shmSeal(int Fd);

/// One mapped descriptor window on the worker side: a
/// runtime::PageWindow behind the descriptor's bounds checks. Windows
/// are torn down per task so a worker's address-space footprint is one
/// in-flight shard, not the whole input — the same discipline the
/// out-of-core MmapFileSource keeps.
class ShmWindow {
public:
  /// Maps elements [Offset, Offset+Count) of stripe \p Stripe of \p R
  /// and points \p Out at them. Count == 0 yields an empty view without
  /// touching mmap. Returns false (Out untouched) when the stripe does
  /// not exist, the descriptor overruns it, or mmap fails.
  bool map(const ShmRegion &R, uint64_t Stripe, uint64_t Offset,
           uint64_t Count, runtime::SegmentView *Out);
  void unmap() { Win.unmap(); }

private:
  runtime::PageWindow Win;
};

} // namespace dist
} // namespace grassp

#endif // GRASSP_DIST_SHM_H
