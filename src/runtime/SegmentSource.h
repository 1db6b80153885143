//===- runtime/SegmentSource.h - Out-of-core segment sources -------------===//
//
// The workload-side abstraction that lets every fold run over inputs far
// larger than RAM (the paper's experiments folded 95-126 GB mmap'ed
// files; see DESIGN.md "Out-of-core and streaming"). A SegmentSource
// describes an element stream carved into fixed chunks; a SegmentCursor
// materializes one chunk at a time, so the resident footprint of a fold
// is one chunk per concurrent reader — never the whole input.
//
// Three implementations, one per input form:
//
//  * VectorSource      - the existing in-memory workload, zero-copy
//                        views (what generated workloads use);
//  * MmapFileSource    - the one reader of binary workload files: one
//                        page-aligned mmap *window* per chunk access
//                        with madvise(SEQUENTIAL) (a whole-file map
//                        would charge the full file against the
//                        address-space limit, which is exactly what
//                        out-of-core must avoid);
//  * ChunkedFileSource - the streaming reader of text workload files: a
//                        byte-offset chunk index + strict line reparse
//                        per chunk, so even unconverted text inputs
//                        never materialize.
//
// Binary files carry an 8-byte magic + little-endian element count
// header ("grassp convert" writes them; see BinaryWorkloadMagic). Cursor
// creation is const and thread-safe: parallel workers each hold their
// own cursor and read disjoint chunks concurrently (per-cursor mappings
// share the one O_RDONLY descriptor; text cursors own their streams).
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_RUNTIME_SEGMENTSOURCE_H
#define GRASSP_RUNTIME_SEGMENTSOURCE_H

#include "runtime/Workload.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace grassp {
namespace runtime {

/// Magic prefix of a binary workload file: 8 bytes, then the element
/// count as a little-endian uint64, then count little-endian int64
/// payload words. The trailing digit is the format version.
inline constexpr char BinaryWorkloadMagic[8] = {'G', 'R', 'S', 'P',
                                                'W', 'B', '0', '1'};
inline constexpr size_t BinaryWorkloadHeaderBytes = 16;

/// One-chunk-at-a-time reader over a SegmentSource. Cursors are cheap;
/// each concurrent reader owns one. The view returned by chunk() is
/// valid until the next call on the same cursor or the cursor's
/// destruction.
class SegmentCursor {
public:
  virtual ~SegmentCursor() = default;

  /// Materializes chunk \p I (whole).
  virtual SegmentView chunk(size_t I) = 0;
};

/// An element stream of known length carved into contiguous chunks.
/// Chunk geometry is fixed at construction (see SourceOptions) and
/// identical across cursors, so "chunk I" names the same elements for
/// every reader and for the MergeTree's chunk index.
class SegmentSource {
public:
  virtual ~SegmentSource() = default;

  /// Total elements in the stream.
  virtual uint64_t elements() const = 0;
  /// Number of chunks covering the stream (>= 1; a zero-length stream
  /// is rejected at construction, mirroring runtime::partition()).
  virtual size_t chunkCount() const = 0;
  /// Element offset of chunk \p I's first element.
  uint64_t chunkBegin(size_t I) const;
  /// Elements in chunk \p I.
  size_t chunkElems(size_t I) const;
  /// New independent reader; const and thread-safe.
  virtual std::unique_ptr<SegmentCursor> cursor() const = 0;
  /// "memory" / "mmap" / "chunked" — for tier/source reporting.
  virtual const char *kind() const = 0;

  /// Zero-copy export for the distributed runtime: when the whole
  /// element stream is one contiguous run of little-endian int64 words
  /// inside one open file, reports the (O_RDONLY) fd and the byte
  /// offset of element 0 and returns true. Chunk geometry then gives
  /// every chunk a stable byte offset — ByteOffset + chunkBegin(I) * 8
  /// — that remote workers can mmap directly. Binary workload files
  /// (GRSPWB01) qualify with ByteOffset = BinaryWorkloadHeaderBytes;
  /// the default (in-memory vectors, text files) reports false and the
  /// dist coordinator copies the chunks once into a sealed memfd.
  virtual bool contiguousByteRegion(int *Fd, uint64_t *ByteOffset) const {
    (void)Fd;
    (void)ByteOffset;
    return false;
  }

protected:
  /// Near-equal chunk geometry over \p N elements: every chunk holds
  /// Base or Base+1 elements (the partition() split generalized to a
  /// chunk-size target). Called once by each implementation's ctor.
  void initChunks(uint64_t N, size_t ChunkElemsTarget, size_t MinChunks);

  uint64_t NumElements = 0;
  size_t NumChunks = 0;
};

/// Geometry knobs shared by every source.
struct SourceOptions {
  /// Target elements per chunk (the bounded-buffer size for file
  /// sources: 1 Mi elements = 8 MiB per cursor).
  size_t ChunkElems = size_t{1} << 20;
  /// Lower bound on the chunk count, so a small input still fans out
  /// across parallel workers. Clamped to the element count — chunks are
  /// never empty.
  size_t MinChunks = 1;
};

/// The in-memory source: owns the vector, zero-copy chunk views.
class VectorSource : public SegmentSource {
public:
  /// Throws std::invalid_argument on an empty workload (callers see the
  /// same contract as partition()).
  explicit VectorSource(std::vector<int64_t> Data,
                        const SourceOptions &Opts = SourceOptions());

  uint64_t elements() const override { return NumElements; }
  size_t chunkCount() const override { return NumChunks; }
  std::unique_ptr<SegmentCursor> cursor() const override;
  const char *kind() const override { return "memory"; }

  const std::vector<int64_t> &data() const { return Data; }

private:
  std::vector<int64_t> Data;
};

/// One read-only window at a time over a file: the page-window mapper
/// under MmapFileSource's cursors and the dist workers' descriptor
/// windows. map() unmaps the previous window, maps from the page that
/// holds the first byte (mmap offsets must be page-aligned; callers ask
/// for element-granular ones), and returns a pointer to that byte.
class PageWindow {
public:
  PageWindow() = default;
  ~PageWindow() { unmap(); }
  PageWindow(const PageWindow &) = delete;
  PageWindow &operator=(const PageWindow &) = delete;

  /// Maps bytes [Offset, Offset + Bytes) of \p Fd, Bytes > 0, as
  /// MAP_PRIVATE + PROT_READ; \p Sequential advises the kernel that the
  /// window is read front to back once. Returns nullptr when mmap fails.
  const void *map(int Fd, uint64_t Offset, size_t Bytes,
                  bool Sequential = false);
  void unmap();

private:
  void *Base = nullptr;
  size_t Len = 0;
};

/// Binary workload file via per-chunk mmap windows.
class MmapFileSource : public SegmentSource {
public:
  /// Throws WorkloadParseError on a missing/short/foreign file or one
  /// over a \p MaxElems != 0 cap, and std::invalid_argument (with the
  /// path) on a zero-length workload.
  explicit MmapFileSource(const std::string &Path,
                          const SourceOptions &Opts = SourceOptions(),
                          uint64_t MaxElems = 0);
  ~MmapFileSource() override;

  uint64_t elements() const override { return NumElements; }
  size_t chunkCount() const override { return NumChunks; }
  std::unique_ptr<SegmentCursor> cursor() const override;
  const char *kind() const override { return "mmap"; }
  bool contiguousByteRegion(int *OutFd, uint64_t *ByteOffset) const override {
    *OutFd = Fd;
    *ByteOffset = BinaryWorkloadHeaderBytes;
    return true;
  }

  const std::string &path() const { return Path; }

private:
  std::string Path;
  int Fd = -1;
};

/// Streaming reader of text workload files with bounded buffering: a
/// byte-offset chunk index built by up-front TextWorkloadReader passes
/// that hold no elements (one pass when the header declares the count,
/// two for a bare file) and strict per-line reparse on access.
class ChunkedFileSource : public SegmentSource {
public:
  /// Throws WorkloadParseError on malformed files (a binary file is one:
  /// openSegmentSource sends those to MmapFileSource),
  /// std::invalid_argument on a zero-length workload. \p MaxElems != 0
  /// rejects larger inputs with a WorkloadParseError.
  explicit ChunkedFileSource(const std::string &Path,
                             const SourceOptions &Opts = SourceOptions(),
                             uint64_t MaxElems = 0);

  uint64_t elements() const override { return NumElements; }
  size_t chunkCount() const override { return NumChunks; }
  std::unique_ptr<SegmentCursor> cursor() const override;
  const char *kind() const override { return "chunked"; }

  const std::string &path() const { return Path; }

private:
  std::string Path;
  /// Byte offset of each chunk's first line.
  std::vector<uint64_t> TextChunkOffsets;
};

/// How openSegmentSource should back the file.
enum class SourceKind { Auto, Memory, Mmap, Chunked };

/// Parses "mem"/"memory", "mmap", "chunked", "auto"; false on others.
bool parseSourceKind(const char *Name, SourceKind *Out);
const char *sourceKindName(SourceKind K);

/// Opens \p Path as a segment source. Auto picks Mmap for binary files
/// and Memory (loadWorkloadFile) for text. Chunked streams text files;
/// binary files always open as Mmap, whose windows are bounded too.
/// Mmap demands a binary file (text callers are pointed at `grassp
/// convert` in the error). Every kind honors \p MaxElems. Throws
/// WorkloadParseError / std::invalid_argument as the sources do.
std::unique_ptr<SegmentSource>
openSegmentSource(const std::string &Path, SourceKind Kind,
                  const SourceOptions &Opts = SourceOptions(),
                  uint64_t MaxElems = 0);

/// True when \p Path starts with the binary workload magic.
bool isBinaryWorkloadFile(const std::string &Path);

/// Incremental writer for binary workload files: streams values out and
/// patches the element count on close(), so files of any size are
/// written with O(1) memory. The temp-file + rename publish means a
/// crashed writer never leaves a half-written file at \p Path.
class BinaryWorkloadWriter {
public:
  /// Throws WorkloadParseError (file-level) when the temp file cannot
  /// be created.
  explicit BinaryWorkloadWriter(const std::string &Path);
  /// Unlinks the temp file when close() was never reached.
  ~BinaryWorkloadWriter();

  void append(const int64_t *Vals, size_t N);
  void append(const std::vector<int64_t> &Vals) {
    append(Vals.data(), Vals.size());
  }
  /// Patches the header count, fsyncs, and renames into place. Throws
  /// WorkloadParseError on I/O errors.
  void close();

  uint64_t written() const { return Count; }

private:
  std::string Path, TmpPath;
  int Fd = -1;
  uint64_t Count = 0;
};

/// Streams a text workload file into the binary format (O(1) memory;
/// strict text parsing by TextWorkloadReader, header count verified
/// when present). Returns the element count.
uint64_t convertTextToBinary(const std::string &TextPath,
                             const std::string &BinPath,
                             uint64_t MaxElems = 0);

} // namespace runtime
} // namespace grassp

#endif // GRASSP_RUNTIME_SEGMENTSOURCE_H
