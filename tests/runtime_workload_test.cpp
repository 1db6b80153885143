//===- tests/runtime_workload_test.cpp - Workload file ingestion ----------==//
//
// The hardened text-workload grammar over the malformed-file corpus in
// tests/data/: every corruption class is rejected with a typed
// WorkloadParseError carrying file:line — identically by all three text
// readers — good files (headered, bare, CRLF, empty) load exactly, and
// the header round-trips what the oracle writes.
//
//===----------------------------------------------------------------------===//

#include "runtime/SegmentSource.h"
#include "runtime/Workload.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

using namespace grassp::runtime;

namespace {

std::string corpus(const char *Name) {
  return std::string(GRASSP_TEST_DATA_DIR) + "/" + Name;
}

/// Runs an expected-bad corpus file through every text reader —
/// loadWorkloadFile, the streaming ChunkedFileSource and
/// convertTextToBinary — checks that all three reject it at the same
/// line for the same reason, and returns the caught error.
WorkloadParseError loadBad(const char *Name) {
  const std::string Bin = ::testing::TempDir() + "grassp_workload_bad.bin";
  const std::function<void()> Readers[] = {
      [&] { loadWorkloadFile(corpus(Name)); },
      [&] { ChunkedFileSource Src(corpus(Name)); },
      [&] { convertTextToBinary(corpus(Name), Bin); }};
  std::vector<WorkloadParseError> Errs;
  for (const std::function<void()> &Read : Readers) {
    try {
      Read();
      ADD_FAILURE() << Name << " parsed without error by reader "
                    << Errs.size();
      Errs.emplace_back("", 0, "");
    } catch (const WorkloadParseError &E) {
      Errs.push_back(E);
    }
  }
  for (size_t I = 1; I != Errs.size(); ++I) {
    EXPECT_EQ(Errs[I].line(), Errs[0].line()) << Name << " reader " << I;
    EXPECT_EQ(Errs[I].reason(), Errs[0].reason()) << Name << " reader " << I;
  }
  std::remove(Bin.c_str());
  return Errs[0];
}

TEST(WorkloadFile, GoodFilesLoadExactly) {
  EXPECT_EQ(loadWorkloadFile(corpus("good_headered.txt")),
            (std::vector<int64_t>{1, -2, 3}));
  EXPECT_EQ(loadWorkloadFile(corpus("good_bare.txt")),
            (std::vector<int64_t>{5, 6, 7}));
  EXPECT_TRUE(loadWorkloadFile(corpus("good_empty.txt")).empty());
  // Windows line endings are tolerated everywhere.
  EXPECT_EQ(loadWorkloadFile(corpus("good_crlf.txt")),
            (std::vector<int64_t>{1, -7}));
}

TEST(WorkloadFile, TruncationIsDetectedByTheHeaderCount) {
  WorkloadParseError E = loadBad("truncated.txt");
  EXPECT_EQ(E.line(), 0u); // file-level: noticed at EOF, not one line.
  EXPECT_NE(E.reason().find("count mismatch"), std::string::npos)
      << E.what();
  EXPECT_NE(E.reason().find("truncated"), std::string::npos) << E.what();
}

TEST(WorkloadFile, MalformedHeadersAreRejectedOnLineOne) {
  EXPECT_EQ(loadBad("bad_header_count.txt").line(), 1u);
  // A comment line that is not the canonical header is refused rather
  // than skipped: silently ignoring it would hide a corrupted header.
  EXPECT_EQ(loadBad("bad_header_tag.txt").line(), 1u);
}

TEST(WorkloadFile, ElementCorruptionsCarryTheOffendingLine) {
  EXPECT_EQ(loadBad("overflow.txt").line(), 2u);
  EXPECT_NE(loadBad("overflow.txt").reason().find("int64"),
            std::string::npos);
  EXPECT_EQ(loadBad("not_a_number.txt").line(), 2u);
  EXPECT_EQ(loadBad("trailing_junk.txt").line(), 2u);
  EXPECT_EQ(loadBad("blank_line.txt").line(), 2u);
}

TEST(WorkloadFile, MissingFileIsAFileLevelError) {
  WorkloadParseError E = loadBad("no_such_file.txt");
  EXPECT_EQ(E.line(), 0u);
  EXPECT_NE(E.file().find("no_such_file.txt"), std::string::npos);
}

TEST(WorkloadFile, WhatFormatsFileLineReason) {
  WorkloadParseError E = loadBad("overflow.txt");
  std::string Expect = E.file() + ":2: " + E.reason();
  EXPECT_EQ(std::string(E.what()), Expect);
}

TEST(WorkloadFile, HeaderRoundTripsThroughTheLoader) {
  EXPECT_EQ(workloadFileHeader(42), "# grassp-workload 42");
  const std::string Path =
      ::testing::TempDir() + "grassp_workload_roundtrip.txt";
  std::vector<int64_t> Vals = {0, -1, 9223372036854775807LL,
                               -9223372036854775807LL - 1};
  {
    std::ofstream Out(Path);
    Out << workloadFileHeader(Vals.size()) << '\n';
    for (int64_t V : Vals)
      Out << V << '\n';
  }
  EXPECT_EQ(loadWorkloadFile(Path), Vals);
  std::remove(Path.c_str());
}

/// Writes \p Body to a temp file and returns its path.
std::string writeTemp(const char *Name, const std::string &Body) {
  std::string Path = ::testing::TempDir() + Name;
  std::ofstream Out(Path, std::ios::binary);
  Out << Body;
  return Path;
}

TEST(WorkloadFile, HeaderOverMaxElemsIsATypedErrorBeforeAllocation) {
  // A header declaring an absurd count must be rejected by the
  // --max-elems guard as a parse error — not by std::bad_alloc from a
  // quadrillion-element reserve.
  const std::string Path = writeTemp(
      "grassp_workload_hugeheader.txt",
      "# grassp-workload 1000000000000000\n1\n2\n");
  try {
    loadWorkloadFile(Path, /*MaxElems=*/100);
    ADD_FAILURE() << "oversized header count parsed without error";
  } catch (const WorkloadParseError &E) {
    EXPECT_EQ(E.line(), 1u);
    EXPECT_NE(E.reason().find("--max-elems"), std::string::npos)
        << E.what();
  }
  std::remove(Path.c_str());
}

TEST(WorkloadFile, HugeHeaderWithoutCapDoesNotPreallocate) {
  // Without a cap the reserve is clamped by the file's byte size, so a
  // lying header ends in an ordinary count-mismatch error, not OOM.
  const std::string Path = writeTemp(
      "grassp_workload_lyingheader.txt",
      "# grassp-workload 1000000000000000\n1\n2\n");
  try {
    loadWorkloadFile(Path);
    ADD_FAILURE() << "lying header count parsed without error";
  } catch (const WorkloadParseError &E) {
    EXPECT_NE(E.reason().find("count mismatch"), std::string::npos)
        << E.what();
  }
  std::remove(Path.c_str());
}

TEST(WorkloadFile, BareFileOverMaxElemsIsRejected) {
  const std::string Path =
      writeTemp("grassp_workload_barecap.txt", "1\n2\n3\n4\n");
  EXPECT_EQ(loadWorkloadFile(Path, 4), (std::vector<int64_t>{1, 2, 3, 4}));
  try {
    loadWorkloadFile(Path, 3);
    ADD_FAILURE() << "over-cap bare file parsed without error";
  } catch (const WorkloadParseError &E) {
    EXPECT_NE(E.reason().find("--max-elems"), std::string::npos)
        << E.what();
  }
  std::remove(Path.c_str());
}

TEST(SegmentSourceFile, ZeroElementFilesAreInvalidArgumentWithThePath) {
  // Sources reject empty workloads by contract (partition() does the
  // same); the error is typed and names the offending file.
  const std::string Text =
      writeTemp("grassp_source_empty.txt", "# grassp-workload 0\n");
  const std::string Bin = ::testing::TempDir() + "grassp_source_empty.bin";
  {
    BinaryWorkloadWriter W(Bin);
    W.close(); // zero elements, valid header.
  }
  // Chunked streams text; a binary file under Chunked opens as mmap.
  const std::pair<const std::string *, SourceKind> Legs[] = {
      {&Bin, SourceKind::Mmap},
      {&Text, SourceKind::Chunked},
      {&Bin, SourceKind::Chunked}};
  for (const auto &[Path, K] : Legs) {
    try {
      openSegmentSource(*Path, K);
      ADD_FAILURE() << "zero-element source opened under kind "
                    << sourceKindName(K);
    } catch (const std::invalid_argument &E) {
      EXPECT_NE(std::string(E.what()).find(*Path), std::string::npos)
          << E.what();
      EXPECT_NE(std::string(E.what()).find("zero elements"),
                std::string::npos)
          << E.what();
    }
  }
  std::remove(Text.c_str());
  std::remove(Bin.c_str());
}

} // namespace
