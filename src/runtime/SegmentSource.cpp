//===- runtime/SegmentSource.cpp -----------------------------------------===//

#include "runtime/SegmentSource.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

// The binary format is little-endian on disk and read back by plain
// int64 loads; a big-endian host would need byte swaps nobody has
// written.
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__) &&             \
    __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "binary workload files assume a little-endian host"
#endif

namespace grassp {
namespace runtime {

namespace {

std::string errnoString() { return std::strerror(errno); }

/// pread that retries EINTR and short reads. Throws on error/EOF.
void preadFull(int Fd, void *Buf, size_t Bytes, uint64_t Off,
               const std::string &Path) {
  char *P = static_cast<char *>(Buf);
  while (Bytes != 0) {
    ssize_t N = ::pread(Fd, P, Bytes, static_cast<off_t>(Off));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throw WorkloadParseError(Path, 0, "read error: " + errnoString());
    }
    if (N == 0)
      throw WorkloadParseError(Path, 0, "unexpected end of file");
    P += N;
    Off += static_cast<uint64_t>(N);
    Bytes -= static_cast<size_t>(N);
  }
}

/// write that retries EINTR and short writes. Throws on error.
void writeFull(int Fd, const void *Buf, size_t Bytes,
               const std::string &Path) {
  const char *P = static_cast<const char *>(Buf);
  while (Bytes != 0) {
    ssize_t N = ::write(Fd, P, Bytes);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throw WorkloadParseError(Path, 0, "write error: " + errnoString());
    }
    P += N;
    Bytes -= static_cast<size_t>(N);
  }
}

int openReadOnly(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    throw WorkloadParseError(Path, 0, "cannot open file: " + errnoString());
  return Fd;
}

void throwEmptyWorkload(const std::string &Path) {
  // Mirrors partition()'s contract: segment sources never produce empty
  // chunk sets, so a zero-length workload is rejected at open.
  throw std::invalid_argument("segment source: workload file '" + Path +
                              "' holds zero elements");
}

/// Reads + validates the binary header; returns the element count.
/// Enforces the exact payload size so truncated or trailing-garbage
/// files fail loudly, and \p MaxElems != 0 as a cap on the count.
uint64_t readBinaryCount(int Fd, const std::string &Path, uint64_t MaxElems) {
  struct stat St;
  if (::fstat(Fd, &St) != 0)
    throw WorkloadParseError(Path, 0, "stat failed: " + errnoString());
  uint64_t Bytes = static_cast<uint64_t>(St.st_size);
  if (Bytes < BinaryWorkloadHeaderBytes)
    throw WorkloadParseError(Path, 0,
                             "not a binary workload file (shorter than "
                             "the header)");
  char Header[BinaryWorkloadHeaderBytes];
  preadFull(Fd, Header, sizeof(Header), 0, Path);
  if (std::memcmp(Header, BinaryWorkloadMagic,
                  sizeof(BinaryWorkloadMagic)) != 0)
    throw WorkloadParseError(Path, 0,
                             "not a binary workload file (bad magic; "
                             "text inputs go through 'grassp convert')");
  uint64_t Count = 0;
  std::memcpy(&Count, Header + sizeof(BinaryWorkloadMagic), sizeof(Count));
  if (Count > (UINT64_MAX - BinaryWorkloadHeaderBytes) / sizeof(int64_t) ||
      Bytes != BinaryWorkloadHeaderBytes + Count * sizeof(int64_t))
    throw WorkloadParseError(
        Path, 0,
        "binary workload size mismatch: header declares " +
            std::to_string(Count) + " element(s) but the file holds " +
            std::to_string(Bytes) + " byte(s)");
  if (MaxElems != 0 && Count > MaxElems)
    throw WorkloadParseError(Path, 0,
                             "file holds " + std::to_string(Count) +
                                 " elements, over the --max-elems cap of " +
                                 std::to_string(MaxElems));
  return Count;
}

uint64_t chunkByteOffset(uint64_t ElemBegin) {
  return BinaryWorkloadHeaderBytes + ElemBegin * sizeof(int64_t);
}

void checkChunkIndex(size_t I, size_t NumChunks) {
  if (I >= NumChunks)
    throw std::out_of_range("segment source: chunk " + std::to_string(I) +
                            " out of range (have " +
                            std::to_string(NumChunks) + ")");
}

//===----------------------------------------------------------------------===//
// Cursors
//===----------------------------------------------------------------------===//

class VectorCursor : public SegmentCursor {
public:
  VectorCursor(const SegmentSource &Src, const std::vector<int64_t> &Data)
      : Src(Src), Data(Data) {}

  SegmentView chunk(size_t I) override {
    checkChunkIndex(I, Src.chunkCount());
    return {Data.data() + Src.chunkBegin(I), Src.chunkElems(I)};
  }

private:
  const SegmentSource &Src;
  const std::vector<int64_t> &Data;
};

/// One live page-aligned window per cursor; remapped on every chunk()
/// so the resident footprint is a single chunk regardless of file size.
class MmapCursor : public SegmentCursor {
public:
  MmapCursor(const SegmentSource &Src, int Fd, std::string Path)
      : Src(Src), Fd(Fd), Path(std::move(Path)) {}

  SegmentView chunk(size_t I) override { return window(I, Src.chunkElems(I)); }

private:
  SegmentView window(size_t I, size_t Elems) {
    checkChunkIndex(I, Src.chunkCount());
    Win.unmap();
    if (Elems == 0)
      return {nullptr, 0};
    // Folds walk each window front to back exactly once.
    const void *P = Win.map(Fd, chunkByteOffset(Src.chunkBegin(I)),
                            Elems * sizeof(int64_t), /*Sequential=*/true);
    if (!P)
      throw WorkloadParseError(Path, 0, "mmap failed: " + errnoString());
    return {static_cast<const int64_t *>(P), Elems};
  }

  const SegmentSource &Src;
  int Fd;
  std::string Path;
  PageWindow Win;
};

/// Text reader: seeks to the chunk's byte offset (from the up-front
/// index) and strictly reparses exactly the chunk's lines. Each cursor
/// owns its stream, so concurrent cursors never share seek state.
class TextChunkCursor : public SegmentCursor {
public:
  TextChunkCursor(const SegmentSource &Src, std::string Path,
                  const std::vector<uint64_t> &Offsets)
      : Src(Src), Path(std::move(Path)), Offsets(Offsets), In(this->Path) {
    if (!In)
      throw WorkloadParseError(this->Path, 0,
                               "cannot open file: " + errnoString());
  }

  SegmentView chunk(size_t I) override { return read(I, Src.chunkElems(I)); }

private:
  SegmentView read(size_t I, size_t Elems) {
    checkChunkIndex(I, Src.chunkCount());
    Buf.clear();
    Buf.reserve(Elems);
    In.clear();
    In.seekg(static_cast<std::streamoff>(Offsets[I]));
    std::string Line;
    for (size_t K = 0; K != Elems; ++K) {
      if (!std::getline(In, Line))
        throw WorkloadParseError(Path, 0,
                                 "file shrank under the streaming reader "
                                 "(chunk " + std::to_string(I) + ")");
      int64_t V = 0;
      if (!parseWorkloadElement(Line, &V))
        throw WorkloadParseError(Path, 0,
                                 "malformed element '" + Line +
                                     "' (file changed under the streaming "
                                     "reader?)");
      Buf.push_back(V);
    }
    return {Buf.data(), Buf.size()};
  }

  const SegmentSource &Src;
  std::string Path;
  const std::vector<uint64_t> &Offsets;
  std::ifstream In;
  std::vector<int64_t> Buf;
};

} // namespace

//===----------------------------------------------------------------------===//
// PageWindow
//===----------------------------------------------------------------------===//

const void *PageWindow::map(int Fd, uint64_t Offset, size_t Bytes,
                            bool Sequential) {
  unmap();
  static const uint64_t Page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  uint64_t Aligned = Offset - Offset % Page;
  size_t Lead = static_cast<size_t>(Offset - Aligned);
  void *M = ::mmap(nullptr, Lead + Bytes, PROT_READ, MAP_PRIVATE, Fd,
                   static_cast<off_t>(Aligned));
  if (M == MAP_FAILED)
    return nullptr;
  Base = M;
  Len = Lead + Bytes;
  if (Sequential)
    ::madvise(Base, Len, MADV_SEQUENTIAL); // advisory only.
  return static_cast<const char *>(M) + Lead;
}

void PageWindow::unmap() {
  if (Base) {
    ::munmap(Base, Len);
    Base = nullptr;
    Len = 0;
  }
}

//===----------------------------------------------------------------------===//
// SegmentSource geometry
//===----------------------------------------------------------------------===//

void SegmentSource::initChunks(uint64_t N, size_t ChunkElemsTarget,
                               size_t MinChunks) {
  NumElements = N;
  if (ChunkElemsTarget == 0)
    ChunkElemsTarget = 1;
  uint64_t Chunks = (N + ChunkElemsTarget - 1) / ChunkElemsTarget;
  Chunks = std::max<uint64_t>(Chunks, std::max<size_t>(MinChunks, 1));
  Chunks = std::min<uint64_t>(Chunks, N); // chunks are never empty
  NumChunks = static_cast<size_t>(Chunks);
}

uint64_t SegmentSource::chunkBegin(size_t I) const {
  uint64_t Base = NumElements / NumChunks, Rem = NumElements % NumChunks;
  return I * Base + std::min<uint64_t>(I, Rem);
}

size_t SegmentSource::chunkElems(size_t I) const {
  uint64_t Base = NumElements / NumChunks, Rem = NumElements % NumChunks;
  return static_cast<size_t>(Base + (I < Rem ? 1 : 0));
}

//===----------------------------------------------------------------------===//
// VectorSource
//===----------------------------------------------------------------------===//

VectorSource::VectorSource(std::vector<int64_t> Data,
                           const SourceOptions &Opts)
    : Data(std::move(Data)) {
  if (this->Data.empty())
    throw std::invalid_argument(
        "segment source: in-memory workload holds zero elements");
  initChunks(this->Data.size(), Opts.ChunkElems, Opts.MinChunks);
}

std::unique_ptr<SegmentCursor> VectorSource::cursor() const {
  return std::make_unique<VectorCursor>(*this, Data);
}

//===----------------------------------------------------------------------===//
// MmapFileSource
//===----------------------------------------------------------------------===//

MmapFileSource::MmapFileSource(const std::string &Path,
                               const SourceOptions &Opts, uint64_t MaxElems)
    : Path(Path), Fd(openReadOnly(Path)) {
  try {
    uint64_t Count = readBinaryCount(Fd, Path, MaxElems);
    if (Count == 0)
      throwEmptyWorkload(Path);
    initChunks(Count, Opts.ChunkElems, Opts.MinChunks);
  } catch (...) {
    ::close(Fd);
    throw;
  }
}

MmapFileSource::~MmapFileSource() {
  if (Fd >= 0)
    ::close(Fd);
}

std::unique_ptr<SegmentCursor> MmapFileSource::cursor() const {
  return std::make_unique<MmapCursor>(*this, Fd, Path);
}

//===----------------------------------------------------------------------===//
// ChunkedFileSource
//===----------------------------------------------------------------------===//

ChunkedFileSource::ChunkedFileSource(const std::string &Path,
                                     const SourceOptions &Opts,
                                     uint64_t MaxElems)
    : Path(Path) {
  // The index holds the byte offset of each chunk's first line, O(chunks)
  // regardless of file size. When the header declares the count, the
  // chunk geometry is known up front and one validating pass records
  // the offsets; a bare file needs a count-only pass first.
  int64_t V = 0;
  TextWorkloadReader Scan(Path, MaxElems);
  if (Scan.declared() && *Scan.declared() != 0) {
    initChunks(*Scan.declared(), Opts.ChunkElems, Opts.MinChunks);
    TextChunkOffsets.reserve(NumChunks);
    do {
      if (TextChunkOffsets.size() != NumChunks &&
          Scan.count() == chunkBegin(TextChunkOffsets.size()))
        TextChunkOffsets.push_back(Scan.offset());
    } while (Scan.next(&V));
    return; // next() has checked the count against the header.
  }
  while (Scan.next(&V)) {
  }
  if (Scan.count() == 0)
    throwEmptyWorkload(Path);
  initChunks(Scan.count(), Opts.ChunkElems, Opts.MinChunks);
  TextWorkloadReader Index(Path);
  TextChunkOffsets.reserve(NumChunks);
  for (size_t I = 0; I != NumChunks; ++I) {
    while (Index.count() != chunkBegin(I))
      if (!Index.next(&V))
        throw WorkloadParseError(Path, 0, "read error building chunk index");
    TextChunkOffsets.push_back(Index.offset());
  }
}

std::unique_ptr<SegmentCursor> ChunkedFileSource::cursor() const {
  return std::make_unique<TextChunkCursor>(*this, Path, TextChunkOffsets);
}

//===----------------------------------------------------------------------===//
// openSegmentSource and friends
//===----------------------------------------------------------------------===//

bool parseSourceKind(const char *Name, SourceKind *Out) {
  std::string S = Name ? Name : "";
  if (S == "auto")
    *Out = SourceKind::Auto;
  else if (S == "mem" || S == "memory")
    *Out = SourceKind::Memory;
  else if (S == "mmap")
    *Out = SourceKind::Mmap;
  else if (S == "chunked")
    *Out = SourceKind::Chunked;
  else
    return false;
  return true;
}

const char *sourceKindName(SourceKind K) {
  switch (K) {
  case SourceKind::Auto:
    return "auto";
  case SourceKind::Memory:
    return "memory";
  case SourceKind::Mmap:
    return "mmap";
  case SourceKind::Chunked:
    return "chunked";
  }
  return "?";
}

bool isBinaryWorkloadFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  char Magic[sizeof(BinaryWorkloadMagic)] = {};
  if (!In.read(Magic, sizeof(Magic)))
    return false;
  return std::memcmp(Magic, BinaryWorkloadMagic, sizeof(Magic)) == 0;
}

namespace {

/// Fully materializes a binary workload file (the Memory source kind
/// over converted files).
std::vector<int64_t> readBinaryAll(const std::string &Path,
                                   uint64_t MaxElems) {
  int Fd = openReadOnly(Path);
  std::vector<int64_t> Out;
  try {
    uint64_t Count = readBinaryCount(Fd, Path, MaxElems);
    Out.resize(static_cast<size_t>(Count));
    if (Count != 0)
      preadFull(Fd, Out.data(), static_cast<size_t>(Count) * sizeof(int64_t),
                BinaryWorkloadHeaderBytes, Path);
  } catch (...) {
    ::close(Fd);
    throw;
  }
  ::close(Fd);
  return Out;
}

} // namespace

std::unique_ptr<SegmentSource> openSegmentSource(const std::string &Path,
                                                 SourceKind Kind,
                                                 const SourceOptions &Opts,
                                                 uint64_t MaxElems) {
  bool Binary = isBinaryWorkloadFile(Path);
  if (Kind == SourceKind::Auto)
    Kind = Binary ? SourceKind::Mmap : SourceKind::Memory;
  // The mmap windows already bound a binary file's footprint; the
  // chunked reader streams text only.
  if (Binary && Kind == SourceKind::Chunked)
    Kind = SourceKind::Mmap;
  switch (Kind) {
  case SourceKind::Memory: {
    std::vector<int64_t> Data = Binary ? readBinaryAll(Path, MaxElems)
                                       : loadWorkloadFile(Path, MaxElems);
    if (Data.empty())
      throwEmptyWorkload(Path);
    return std::make_unique<VectorSource>(std::move(Data), Opts);
  }
  case SourceKind::Mmap:
    return std::make_unique<MmapFileSource>(Path, Opts, MaxElems);
  case SourceKind::Chunked:
    return std::make_unique<ChunkedFileSource>(Path, Opts, MaxElems);
  case SourceKind::Auto:
    break;
  }
  throw std::logic_error("openSegmentSource: unreachable source kind");
}

//===----------------------------------------------------------------------===//
// BinaryWorkloadWriter / convertTextToBinary
//===----------------------------------------------------------------------===//

BinaryWorkloadWriter::BinaryWorkloadWriter(const std::string &Path)
    : Path(Path), TmpPath(Path + ".tmp." + std::to_string(::getpid())) {
  Fd = ::open(TmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
              0644);
  if (Fd < 0)
    throw WorkloadParseError(TmpPath, 0,
                             "cannot create file: " + errnoString());
  char Header[BinaryWorkloadHeaderBytes] = {};
  std::memcpy(Header, BinaryWorkloadMagic, sizeof(BinaryWorkloadMagic));
  // Count placeholder (zero) — patched by close().
  writeFull(Fd, Header, sizeof(Header), TmpPath);
}

BinaryWorkloadWriter::~BinaryWorkloadWriter() {
  if (Fd >= 0) {
    ::close(Fd);
    ::unlink(TmpPath.c_str());
  }
}

void BinaryWorkloadWriter::append(const int64_t *Vals, size_t N) {
  if (Fd < 0)
    throw std::logic_error("BinaryWorkloadWriter: append after close");
  writeFull(Fd, Vals, N * sizeof(int64_t), TmpPath);
  Count += N;
}

void BinaryWorkloadWriter::close() {
  if (Fd < 0)
    throw std::logic_error("BinaryWorkloadWriter: double close");
  uint64_t C = Count;
  if (::pwrite(Fd, &C, sizeof(C),
               static_cast<off_t>(sizeof(BinaryWorkloadMagic))) !=
      static_cast<ssize_t>(sizeof(C)))
    throw WorkloadParseError(TmpPath, 0,
                             "cannot patch element count: " + errnoString());
  if (::fsync(Fd) != 0)
    throw WorkloadParseError(TmpPath, 0, "fsync failed: " + errnoString());
  ::close(Fd);
  Fd = -1;
  if (::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::string E = errnoString();
    ::unlink(TmpPath.c_str());
    throw WorkloadParseError(Path, 0, "cannot publish file: " + E);
  }
}

uint64_t convertTextToBinary(const std::string &TextPath,
                             const std::string &BinPath, uint64_t MaxElems) {
  TextWorkloadReader R(TextPath, MaxElems);
  BinaryWorkloadWriter Writer(BinPath);
  std::vector<int64_t> Batch;
  const size_t BatchElems = size_t{1} << 16;
  Batch.reserve(BatchElems);
  int64_t V = 0;
  while (R.next(&V)) {
    Batch.push_back(V);
    if (Batch.size() == BatchElems) {
      Writer.append(Batch);
      Batch.clear();
    }
  }
  Writer.append(Batch);
  Writer.close();
  return Writer.written();
}

} // namespace runtime
} // namespace grassp
