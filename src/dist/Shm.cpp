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
  for (const ShmStripe &S : Stripes)
    if (S.Fd >= 0)
      ::close(S.Fd);
  Stripes.clear();
  Generation = 0;
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
  const void *P = Win.map(S.Fd, S.ByteOffset + Offset * sizeof(int64_t),
                          static_cast<size_t>(Count * sizeof(int64_t)));
  if (!P)
    return false;
  *Out = runtime::SegmentView{static_cast<const int64_t *>(P),
                              static_cast<size_t>(Count)};
  return true;
}

} // namespace dist
} // namespace grassp
