//===- runtime/Workload.cpp ------------------------------------------------=//

#include "runtime/Workload.h"

#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <stdexcept>

namespace grassp {
namespace runtime {

WorkloadStream::WorkloadStream(const lang::SerialProgram &Prog,
                               size_t TotalN, uint64_t Seed,
                               const WorkloadOptions &Opts)
    : Prog(Prog), TotalN(TotalN), Opts(Opts), R(Seed) {}

size_t WorkloadStream::generate(size_t Count, std::vector<int64_t> &Out) {
  size_t N = std::min(Count, remaining());
  Out.reserve(Out.size() + N);

  if (Prog.Name == "is_sorted") {
    // Nearly sorted ("system log files consistent with system time"),
    // with rare injected inversions so both outcomes of the sortedness
    // check occur across seeds.
    for (size_t K = 0; K != N; ++K) {
      size_t I = Produced + K;
      if (I != 0 && Opts.SortedInversionPerMille != 0 &&
          R.chance(Opts.SortedInversionPerMille, 1000))
        SortedCur -= 1 + static_cast<int64_t>(R.next() % 3);
      else
        SortedCur += static_cast<int64_t>(R.next() % 3);
      Out.push_back(SortedCur);
    }
  } else if (Prog.Name == "all_equal") {
    Out.insert(Out.end(), N, 5);
  } else if (Prog.Name == "alternating01") {
    for (size_t K = 0; K != N; ++K)
      Out.push_back(static_cast<int64_t>((Produced + K) & 1));
  } else if (Prog.Name == "count_distinct") {
    // Skewed stream reproducing the paper's superlinear observation: the
    // first eighth carries many distinct values, the rest only a few, so
    // a serial linear-search membership structure pays the full distinct
    // count on every later element while per-thread structures stay tiny.
    size_t Head = TotalN / 8;
    for (size_t K = 0; K != N; ++K)
      Out.push_back(Produced + K < Head ? R.range(0, 1500)
                                        : 1600 + R.range(0, 9));
  } else if (!Prog.InputAlphabet.empty()) {
    // Alphabet streams; markers (the boundary symbols) appear with their
    // natural uniform frequency, which keeps conditional prefixes short.
    for (size_t K = 0; K != N; ++K)
      Out.push_back(Prog.InputAlphabet[R.bounded(Prog.InputAlphabet.size())]);
  } else {
    for (size_t K = 0; K != N; ++K)
      Out.push_back(R.range(Prog.GenLo, Prog.GenHi));
  }
  Produced += N;
  return N;
}

std::vector<int64_t> generateWorkload(const lang::SerialProgram &Prog,
                                      size_t N, uint64_t Seed,
                                      const WorkloadOptions &Opts) {
  std::vector<int64_t> Out;
  WorkloadStream(Prog, N, Seed, Opts).generate(N, Out);
  return Out;
}

WorkloadParseError::WorkloadParseError(std::string File, unsigned Line,
                                       std::string Reason)
    : std::runtime_error(File + ":" + std::to_string(Line) + ": " + Reason),
      FileName(std::move(File)), LineNo(Line), Why(std::move(Reason)) {}

std::string workloadFileHeader(size_t Count) {
  return "# grassp-workload " + std::to_string(Count);
}

bool parseWorkloadElement(std::string Line, int64_t *Out) {
  if (!Line.empty() && Line.back() == '\r')
    Line.pop_back();
  if (Line.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(Line.c_str(), &End, 10);
  if (End == Line.c_str() || *End != '\0' || errno == ERANGE)
    return false;
  *Out = static_cast<int64_t>(V);
  return true;
}

namespace {

/// Parses a CR-stripped first line as the canonical `# grassp-workload
/// <count>` header. Returns false with \p Reason set when the line is a
/// comment but not a well-formed header.
bool parseWorkloadHeader(const std::string &Stripped, uint64_t *Count,
                         std::string *Reason) {
  // Must be the exact header: "# grassp-workload <count>".
  const std::string Tag = "# grassp-workload ";
  if (Stripped.compare(0, Tag.size(), Tag) != 0) {
    *Reason = "unrecognized header (expected '# grassp-workload <count>')";
    return false;
  }
  std::string CountStr = Stripped.substr(Tag.size());
  errno = 0;
  char *End = nullptr;
  unsigned long long C = std::strtoull(CountStr.c_str(), &End, 10);
  if (End == CountStr.c_str() || *End != '\0' || errno == ERANGE ||
      CountStr.front() == '-') {
    *Reason = "malformed element count '" + CountStr + "' in header";
    return false;
  }
  *Count = static_cast<uint64_t>(C);
  return true;
}

} // namespace

TextWorkloadReader::TextWorkloadReader(const std::string &Path,
                                       uint64_t MaxElems)
    : Path(Path), MaxElems(MaxElems), In(Path, std::ios::binary) {
  if (!In)
    throw WorkloadParseError(Path, 0,
                             std::string("cannot open file: ") +
                                 std::strerror(errno));
  if (In.peek() != '#' || !readLine())
    return;
  uint64_t C = 0;
  std::string Reason;
  if (!parseWorkloadHeader(Line, &C, &Reason))
    throw WorkloadParseError(Path, LineNo, Reason);
  if (MaxElems != 0 && C > MaxElems)
    throw WorkloadParseError(Path, LineNo,
                             "header declares " + std::to_string(C) +
                                 " elements, over the --max-elems cap of " +
                                 std::to_string(MaxElems));
  Declared = C;
}

bool TextWorkloadReader::readLine() {
  if (!std::getline(In, Line))
    return false;
  ++LineNo;
  Offset += Line.size() + 1;
  if (!Line.empty() && Line.back() == '\r')
    Line.pop_back();
  return true;
}

bool TextWorkloadReader::next(int64_t *Out) {
  if (!readLine()) {
    if (In.bad())
      throw WorkloadParseError(Path, LineNo, "read error");
    if (Declared && Count != *Declared)
      throw WorkloadParseError(
          Path, 0,
          "element count mismatch: header declares " +
              std::to_string(*Declared) + " but file holds " +
              std::to_string(Count) +
              (Count < *Declared ? " (truncated file?)" : ""));
    return false;
  }
  // The constructor consumed a line-1 header; any other '#' line is out
  // of place.
  if (!Line.empty() && Line.front() == '#')
    throw WorkloadParseError(Path, LineNo,
                             "comment lines are only allowed as the "
                             "first-line header");
  if (!parseWorkloadElement(Line, Out))
    throw WorkloadParseError(Path, LineNo,
                             "malformed element '" + Line +
                                 "' (expected one decimal int64 per line)");
  if (MaxElems != 0 && Count == MaxElems)
    throw WorkloadParseError(Path, LineNo,
                             "file holds more than the --max-elems cap of " +
                                 std::to_string(MaxElems) + " element(s)");
  ++Count;
  return true;
}

std::vector<int64_t> loadWorkloadFile(const std::string &Path,
                                      uint64_t MaxElems) {
  TextWorkloadReader R(Path, MaxElems);
  std::vector<int64_t> Out;
  if (R.declared()) {
    // Every element line is at least two bytes ("0\n"), so a header
    // declaring more than bytes/2 elements is lying and must not drive
    // the allocation.
    std::error_code Ec;
    uint64_t FileBytes = std::filesystem::file_size(Path, Ec);
    Out.reserve(static_cast<size_t>(
        std::min<uint64_t>(*R.declared(), Ec ? 0 : FileBytes / 2 + 1)));
  }
  int64_t V = 0;
  while (R.next(&V))
    Out.push_back(V);
  return Out;
}

std::vector<SegmentView> partition(const std::vector<int64_t> &Data,
                                   unsigned M) {
  if (M == 0 || Data.size() < M)
    throw std::invalid_argument(
        "runtime::partition: need 0 < M <= Data.size() (M=" +
        std::to_string(M) + ", N=" + std::to_string(Data.size()) +
        "); use segmentsFromLengths for degenerate shapes");
  std::vector<SegmentView> Segs;
  Segs.reserve(M);
  size_t N = Data.size();
  size_t Base = N / M, Rem = N % M;
  size_t Off = 0;
  for (unsigned I = 0; I != M; ++I) {
    size_t Len = Base + (I < Rem ? 1 : 0);
    Segs.push_back({Data.data() + Off, Len});
    Off += Len;
  }
  assert(Off == N && "partition must cover the data");
  return Segs;
}

std::vector<SegmentView> segmentsFromLengths(const std::vector<int64_t> &Data,
                                             const std::vector<size_t> &Lens) {
  size_t Total = std::accumulate(Lens.begin(), Lens.end(), size_t{0});
  if (Total != Data.size())
    throw std::invalid_argument(
        "runtime::segmentsFromLengths: lengths sum to " +
        std::to_string(Total) + " but Data has " +
        std::to_string(Data.size()) + " elements");
  std::vector<SegmentView> Segs;
  Segs.reserve(Lens.size());
  size_t Off = 0;
  for (size_t Len : Lens) {
    Segs.push_back({Data.data() + Off, Len});
    Off += Len;
  }
  return Segs;
}

namespace {

/// Near-equal lengths (the partition() split), but tolerating M > N by
/// letting trailing segments go empty.
std::vector<size_t> nearEqualLens(size_t N, unsigned M) {
  std::vector<size_t> Lens(M, 0);
  size_t Base = M ? N / M : 0, Rem = M ? N % M : 0;
  for (unsigned I = 0; I != M; ++I)
    Lens[I] = Base + (I < Rem ? 1 : 0);
  return Lens;
}

} // namespace

std::vector<SegmentShape> adversarialShapes(size_t N, unsigned M) {
  std::vector<SegmentShape> Shapes;
  if (M == 0)
    return Shapes;
  auto Add = [&](std::string Name, std::vector<size_t> Lens) {
    // Dedup: degenerate N/M make several recipes coincide.
    for (const SegmentShape &S : Shapes)
      if (S.Lens == Lens)
        return;
    Shapes.push_back({std::move(Name), std::move(Lens)});
  };

  Add("near-equal", nearEqualLens(N, M));

  if (M > 1) {
    // Empty segment at the front, middle, and back.
    std::vector<size_t> Rest = nearEqualLens(N, M - 1);
    std::vector<size_t> Front = Rest;
    Front.insert(Front.begin(), 0);
    Add("empty-first", Front);
    std::vector<size_t> Mid = Rest;
    Mid.insert(Mid.begin() + Mid.size() / 2, 0);
    Add("empty-middle", Mid);
    std::vector<size_t> Back = Rest;
    Back.push_back(0);
    Add("empty-last", Back);

    // All data in one segment, everything else empty.
    std::vector<size_t> First(M, 0);
    First[0] = N;
    Add("all-in-first", First);
    std::vector<size_t> Last(M, 0);
    Last[M - 1] = N;
    Add("all-in-last", Last);

    // Length-1 head segments; the remainder lands in the last segment.
    std::vector<size_t> Ones(M, 0);
    size_t Left = N;
    for (unsigned I = 0; I + 1 < M && Left != 0; ++I) {
      Ones[I] = 1;
      --Left;
    }
    Ones[M - 1] += Left;
    Add("length-1-head", Ones);

    // Data only in every other segment (empty segments interleaved).
    std::vector<size_t> Alt(M, 0);
    unsigned Holders = (M + 1) / 2;
    std::vector<size_t> Packed = nearEqualLens(N, Holders);
    for (unsigned I = 0; I != Holders; ++I)
      Alt[2 * I] = Packed[I];
    Add("alternating-empty", Alt);
  }
  return Shapes;
}

} // namespace runtime
} // namespace grassp
