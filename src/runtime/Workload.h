//===- runtime/Workload.h - Per-benchmark workload generation ------------===//
//
// Deterministic synthetic data streams matching each benchmark's input
// model (paper Sect. 9.1): alphabet streams for the pattern counters,
// nearly-sorted streams for the sortedness check, constant streams for
// the equality check, and uniform integers for the generic scans.
//
// Also home of the segment-shape machinery: partition() produces the
// standard near-equal non-empty split, while segmentsFromLengths() and
// adversarialShapes() let the differential-oracle harness exercise the
// shapes the verifier's non-empty data model never sees (empty segments,
// length-1 segments, all data in one segment, M > N).
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_RUNTIME_WORKLOAD_H
#define GRASSP_RUNTIME_WORKLOAD_H

#include "lang/Program.h"
#include "support/Random.h"

#include <cstdint>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace grassp {
namespace runtime {

/// A view of one contiguous segment of the input stream.
struct SegmentView {
  const int64_t *Data = nullptr;
  size_t Size = 0;
};

/// Knobs for generateWorkload().
struct WorkloadOptions {
  /// Expected inversions per 1000 elements of the "nearly sorted"
  /// is_sorted stream. The default keeps streams *nearly* sorted but
  /// makes sure the false branch of the benchmark is exercised across
  /// seeds (a strictly monotone generator never is). 0 restores the
  /// always-sorted stream.
  unsigned SortedInversionPerMille = 1;
};

/// Generates \p N elements appropriate for \p Prog.
std::vector<int64_t> generateWorkload(const lang::SerialProgram &Prog,
                                      size_t N, uint64_t Seed,
                                      const WorkloadOptions &Opts =
                                          WorkloadOptions());

/// Incremental form of generateWorkload: produces the identical element
/// stream in caller-sized slices, so >RAM workload files can be written
/// with O(1) memory (`grassp convert --gen`). The total length is fixed
/// up front because some generators are position-dependent (the
/// count_distinct head is TotalN/8 elements; alternating01 keys on the
/// absolute index); generateWorkload(P, N, S) == one N-sized slice.
class WorkloadStream {
public:
  WorkloadStream(const lang::SerialProgram &Prog, size_t TotalN,
                 uint64_t Seed,
                 const WorkloadOptions &Opts = WorkloadOptions());

  /// Appends the next min(Count, remaining()) elements to \p Out;
  /// returns how many were produced.
  size_t generate(size_t Count, std::vector<int64_t> &Out);
  size_t remaining() const { return TotalN - Produced; }
  size_t total() const { return TotalN; }

private:
  const lang::SerialProgram &Prog;
  size_t TotalN;
  WorkloadOptions Opts;
  Rng R;
  size_t Produced = 0;
  int64_t SortedCur = 0; // is_sorted generator state.
};

/// Typed rejection of a malformed workload file; what() reads
/// "file:line: reason" (line 0 = a file-level problem such as a count
/// mismatch or an unreadable path).
class WorkloadParseError : public std::runtime_error {
public:
  WorkloadParseError(std::string File, unsigned Line, std::string Reason);
  const std::string &file() const { return FileName; }
  unsigned line() const { return LineNo; }
  const std::string &reason() const { return Why; }

private:
  std::string FileName;
  unsigned LineNo;
  std::string Why;
};

/// The one implementation of the text workload grammar: one decimal
/// int64 per line, optionally led by a `# grassp-workload <count>`
/// header (the form the oracle and the emitted programs write). The
/// grammar is strict so a truncated or corrupted file fails loudly
/// instead of folding garbage:
///  * every element line must be exactly one int64 — no trailing junk,
///    no blank lines, values outside int64 (overflow) rejected; a '\r'
///    line tail is tolerated;
///  * with a header, the element count must equal the declared count
///    (catches truncation, which the bare format cannot detect);
///  * only the first line may be a `#` comment, and it must be the
///    well-formed header.
/// \p MaxElems != 0 caps the accepted element count: a header declaring
/// more is rejected at construction, and a bare file at the first
/// element past the cap. Elements stream one line at a time, so the
/// reader itself holds none. Every violation throws WorkloadParseError.
class TextWorkloadReader {
public:
  /// Opens \p Path and reads the header, if line 1 is one.
  explicit TextWorkloadReader(const std::string &Path, uint64_t MaxElems = 0);

  /// Reads the next element into \p Out. Returns false at end of file,
  /// after checking the header's count against the elements read.
  bool next(int64_t *Out);

  /// The header's element count; nullopt for a bare file.
  const std::optional<uint64_t> &declared() const { return Declared; }
  /// Elements read so far.
  uint64_t count() const { return Count; }
  /// Byte offset of the next unread line.
  uint64_t offset() const { return Offset; }

private:
  /// Reads one line into Line, dropping a '\r' tail; false at EOF.
  bool readLine();

  std::string Path;
  uint64_t MaxElems;
  std::ifstream In;
  std::string Line;
  unsigned LineNo = 0;
  uint64_t Count = 0, Offset = 0;
  std::optional<uint64_t> Declared;
};

/// Loads a whole text workload file (TextWorkloadReader's grammar). The
/// vector is reserved from the header count up front, clamped by a
/// bytes-on-disk bound since no well-formed file holds more elements
/// than half its byte size: a lying header ends in a count mismatch,
/// not a bad_alloc. Never returns partial data.
std::vector<int64_t> loadWorkloadFile(const std::string &Path,
                                      uint64_t MaxElems = 0);

/// Strict one-int64 parse of a workload element line (no junk, no blank
/// lines, int64 range enforced; lone '\r' tail tolerated). Shared by
/// TextWorkloadReader and the streaming text source's chunk reparse.
bool parseWorkloadElement(std::string Line, int64_t *Out);

/// The canonical header line (without newline) for \p Count elements.
std::string workloadFileHeader(size_t Count);

/// Splits \p Data into \p M contiguous, non-empty, near-equal segments.
/// Throws std::invalid_argument unless 0 < M <= Data.size(); this is a
/// real runtime check, not an assert, so Release builds cannot silently
/// produce zero-length trailing segments.
std::vector<SegmentView> partition(const std::vector<int64_t> &Data,
                                   unsigned M);

/// Builds segment views with the exact lengths \p Lens (empty segments
/// allowed). Throws std::invalid_argument unless the lengths sum to
/// Data.size(). The testing entry point for shapes partition() rejects.
std::vector<SegmentView> segmentsFromLengths(const std::vector<int64_t> &Data,
                                             const std::vector<size_t> &Lens);

/// One named adversarial segment shape: lengths summing to N.
struct SegmentShape {
  std::string Name;
  std::vector<size_t> Lens;
};

/// Adversarial segment shapes covering \p N elements with \p M segments
/// (M may exceed N; empty segments appear deliberately): near-equal,
/// empty first/middle/last, alternating empties, length-1 head, and all
/// data in a single segment. Shapes degenerate gracefully for tiny N.
std::vector<SegmentShape> adversarialShapes(size_t N, unsigned M);

} // namespace runtime
} // namespace grassp

#endif // GRASSP_RUNTIME_WORKLOAD_H
