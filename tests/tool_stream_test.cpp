//===- tests/tool_stream_test.cpp - Piped grassp stream REPL -------------===//
//
// Drives the built `grassp stream` binary (path injected as GRASSP_TOOL
// by the build) through real pipes, the way a script would: well-formed
// sessions, every malformed-input class, and truncated input. The REPL
// contract under test:
//
//  * malformed lines produce one typed diagnostic each —
//    error[unknown-command], error[bad-index], error[bad-element] — and
//    the session continues;
//  * a session that ends with `quit` exits 0;
//  * piped input that hits EOF without `quit` (a truncated driver
//    script) exits nonzero with error[eof] on stderr.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace {

struct ToolRun {
  std::string Out;
  int ExitCode = -1;
};

/// Runs `grassp stream <Program>` with \p Input on stdin; captures
/// stdout (stderr is folded in via the shell so typed EOF errors are
/// visible).
ToolRun runStream(const std::string &Input,
                  const std::string &Program = "sum") {
  std::string Cmd = "printf '%s' '" + Input + "' | '" GRASSP_TOOL
                    "' stream " + Program + " 2>&1";
  ToolRun R;
  FILE *P = ::popen(Cmd.c_str(), "r");
  if (!P) {
    R.Out = "popen failed";
    return R;
  }
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    R.Out.append(Buf, N);
  int Status = ::pclose(P);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

TEST(StreamRepl, CleanSessionExitsZero) {
  ToolRun R = runStream("append 1 2 3\nquery\nverify\nquit\n");
  EXPECT_EQ(R.ExitCode, 0) << R.Out;
  EXPECT_NE(R.Out.find("query = 6"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("verify ok: 6"), std::string::npos) << R.Out;
  EXPECT_EQ(R.Out.find("error["), std::string::npos) << R.Out;
}

TEST(StreamRepl, CondPrefixSessionVerifies) {
  // count_102 merges by conditional-prefix summaries, through the same
  // tree path as every other plan shape.
  ToolRun R = runStream("append 1 0 2 1\n"
                        "append 0 2 2 1 0\n"
                        "append 2 1\n"
                        "edit 1 1 0 0 2\n"
                        "verify\n"
                        "stats\n"
                        "quit\n",
                        "count_102");
  EXPECT_EQ(R.ExitCode, 0) << R.Out;
  EXPECT_NE(R.Out.find("verify ok:"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("chunks=3 elements=10\n"), std::string::npos)
      << R.Out;
  EXPECT_EQ(R.Out.find("error["), std::string::npos) << R.Out;
}

TEST(StreamRepl, MalformedLinesGetTypedErrorsAndSessionContinues) {
  ToolRun R = runStream("bogus\n"
                        "edit notanumber 5\n"
                        "append 1 two\n"
                        "append\n"
                        "append 40 2\n"
                        "query\n"
                        "quit\n");
  EXPECT_EQ(R.ExitCode, 0) << R.Out;
  EXPECT_NE(R.Out.find("error[unknown-command]: 'bogus'"),
            std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("error[bad-index]"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("error[bad-element]"), std::string::npos) << R.Out;
  // The garbage did not poison the session: the good append landed.
  EXPECT_NE(R.Out.find("query = 42"), std::string::npos) << R.Out;
}

TEST(StreamRepl, OutOfRangeEditIsARuntimeErrorNotACrash) {
  ToolRun R = runStream("append 1\nedit 99 5\nquery\nquit\n");
  EXPECT_EQ(R.ExitCode, 0) << R.Out;
  EXPECT_NE(R.Out.find("error[runtime]"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("query = 1"), std::string::npos) << R.Out;
}

TEST(StreamRepl, PipedEofWithoutQuitExitsNonzero) {
  ToolRun R = runStream("append 1 2 3\nquery\n");
  EXPECT_EQ(R.ExitCode, 1) << R.Out;
  // The work before the truncation still ran...
  EXPECT_NE(R.Out.find("query = 6"), std::string::npos) << R.Out;
  // ...and the truncation itself is a typed diagnostic.
  EXPECT_NE(R.Out.find("error[eof]: input ended without 'quit'"),
            std::string::npos)
      << R.Out;
}

TEST(StreamRepl, EmptyPipedInputIsTruncatedInputToo) {
  ToolRun R = runStream("");
  EXPECT_EQ(R.ExitCode, 1) << R.Out;
  EXPECT_NE(R.Out.find("error[eof]"), std::string::npos) << R.Out;
}

} // namespace
