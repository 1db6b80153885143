//===- dist/Shm.cpp -------------------------------------------------------==//

#include "dist/Shm.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

namespace grassp {
namespace dist {

void ShmRegion::reset() {
  if (OwnsFds)
    for (const ShmStripe &S : Stripes)
      if (S.Fd >= 0)
        ::close(S.Fd);
  Stripes.clear();
  OwnsFds = false;
  Generation = Token = 0;
}

int shmCreateBuffer() {
#if defined(MFD_ALLOW_SEALING)
  int Fd = ::memfd_create("grassp-dist-shm", MFD_CLOEXEC | MFD_ALLOW_SEALING);
  return Fd;
#else
  return -1;
#endif
}

bool shmAppend(int Fd, const void *Data, size_t N) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  while (N != 0) {
    ssize_t W = ::write(Fd, P, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += W;
    N -= static_cast<size_t>(W);
  }
  return true;
}

bool shmSeal(int Fd) {
#if defined(F_ADD_SEALS)
  return ::fcntl(Fd, F_ADD_SEALS,
                 F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_WRITE) == 0;
#else
  (void)Fd;
  return false;
#endif
}

bool shmTransportAvailable() {
  static const bool Avail = [] {
    int Fd = shmCreateBuffer();
    if (Fd < 0)
      return false;
    bool Ok = shmSeal(Fd);
    ::close(Fd);
    return Ok;
  }();
  return Avail;
}

uint64_t shmToken(uint64_t Generation, uint64_t Elems, uint64_t PlanHash) {
  // SplitMix64 finalizer over the mixed identity words. Not a content
  // hash — hashing the bytes would cost as much as the fold it saves —
  // just a stamp that makes (generation, input, plan) collisions
  // vanishingly unlikely across coordinator lifetimes.
  uint64_t Z = Generation * 0x9e3779b97f4a7c15ULL + Elems * 0xbf58476d1ce4e5b9ULL +
               PlanHash * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  Z ^= Z >> 30;
  Z *= 0xbf58476d1ce4e5b9ULL;
  Z ^= Z >> 27;
  Z *= 0x94d049bb133111ebULL;
  Z ^= Z >> 31;
  return Z;
}

bool ShmWindow::map(const ShmRegion &R, uint64_t Stripe, uint64_t Offset,
                    uint64_t Count, runtime::SegmentView *Out) {
  unmap();
  if (Stripe >= R.Stripes.size())
    return false;
  const ShmStripe &S = R.Stripes[Stripe];
  if (S.Fd < 0 || Offset > S.Elems || Count > S.Elems - Offset)
    return false;
  if (Count == 0) {
    *Out = runtime::SegmentView{nullptr, 0};
    return true;
  }
  uint64_t ByteOff = S.ByteOffset + Offset * sizeof(int64_t);
  uint64_t ByteLen = Count * sizeof(int64_t);
  // mmap offsets must be page-aligned; descriptors are element-granular,
  // so map from the enclosing page and point into it.
  uint64_t Page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  uint64_t Aligned = ByteOff & ~(Page - 1);
  uint64_t Delta = ByteOff - Aligned;
  void *M = ::mmap(nullptr, static_cast<size_t>(Delta + ByteLen), PROT_READ,
                   MAP_PRIVATE, S.Fd, static_cast<off_t>(Aligned));
  if (M == MAP_FAILED)
    return false;
  Base = M;
  Len = static_cast<size_t>(Delta + ByteLen);
  Out->Data = reinterpret_cast<const int64_t *>(
      static_cast<const uint8_t *>(M) + Delta);
  Out->Size = static_cast<size_t>(Count);
  return true;
}

void ShmWindow::unmap() {
  if (Base) {
    ::munmap(Base, Len);
    Base = nullptr;
    Len = 0;
  }
}

} // namespace dist
} // namespace grassp
