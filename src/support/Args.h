//===- support/Args.h - Strict command-line number parsing ---------------===//
//
// Shared strict parsers for CLI tools and benchmark harnesses. Unlike
// std::atoi/atoll (which silently turn garbage into 0 — a zero-worker
// run or a zero-millisecond solver budget), these reject empty strings,
// trailing junk, and out-of-range values, so malformed arguments become
// hard usage errors at the call site. NumericFlag wraps them for the
// common "--flag N" option loop.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SUPPORT_ARGS_H
#define GRASSP_SUPPORT_ARGS_H

#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace grassp {

/// Parses \p Arg as a base-10 unsigned; false on malformed or
/// out-of-range input (\p Out untouched on failure).
inline bool parseUnsigned(const char *Arg, unsigned *Out) {
  if (!Arg || !std::isdigit(static_cast<unsigned char>(*Arg)))
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long V = std::strtoul(Arg, &End, 10);
  if (End == Arg || *End != '\0' || errno == ERANGE ||
      V > std::numeric_limits<unsigned>::max())
    return false;
  *Out = static_cast<unsigned>(V);
  return true;
}

/// Parses \p Arg as a base-10 size_t; false on malformed input.
inline bool parseSize(const char *Arg, size_t *Out) {
  if (!Arg || !std::isdigit(static_cast<unsigned char>(*Arg)))
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Arg, &End, 10);
  if (End == Arg || *End != '\0' || errno == ERANGE ||
      V > std::numeric_limits<size_t>::max())
    return false;
  *Out = static_cast<size_t>(V);
  return true;
}

/// Parses \p Arg as a base-10 uint64 (e.g. PRNG seeds).
inline bool parseSeed(const char *Arg, uint64_t *Out) {
  size_t V = 0;
  if (!parseSize(Arg, &V))
    return false;
  *Out = static_cast<uint64_t>(V);
  return true;
}

/// Strict "--flag N" reader for one argv position of an option loop:
///
///   for (int I = 2; I != argc; ++I) {
///     NumericFlag Num(argc, argv, I);
///     if (Num("--jobs", &Jobs) || Num("--seed", &Seed))
///       continue;
///     ...
///
/// Num(Flag, Out) is false when argv[I] is not \p Flag or no value
/// follows it. Otherwise it parses argv[I+1] into \p Out, advances I
/// past the value and returns true. A malformed value is a hard usage
/// error: "error: FLAG expects a number, got 'VALUE'" and exit status 2.
class NumericFlag {
public:
  NumericFlag(int Argc, char **Argv, int &I) : Argc(Argc), Argv(Argv), I(I) {}

  bool operator()(const char *Flag, unsigned *Out) const {
    return read(Flag, Out, parseUnsigned);
  }
  bool operator()(const char *Flag, uint64_t *Out) const {
    return read(Flag, Out, parseSeed);
  }

private:
  template <typename T>
  bool read(const char *Flag, T *Out, bool (*Parse)(const char *, T *)) const {
    if (std::strcmp(Argv[I], Flag) != 0 || I + 1 >= Argc)
      return false;
    if (!Parse(Argv[++I], Out)) {
      std::fprintf(stderr, "error: %s expects a number, got '%s'\n", Flag,
                   Argv[I]);
      std::exit(2);
    }
    return true;
  }

  int Argc;
  char **Argv;
  int &I;
};

} // namespace grassp

#endif // GRASSP_SUPPORT_ARGS_H
