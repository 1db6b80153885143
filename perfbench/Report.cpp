//===- perfbench/Report.cpp - Raw measurement JSON -----------------------===//

#include "Report.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr size_t MaxFailureNotes = 20;

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

void Report::sample(const std::string &Key, double V) {
  std::lock_guard<std::mutex> L(Mu);
  Samples[Key].push_back(V);
}

void Report::set(const std::string &Key, double V) {
  std::lock_guard<std::mutex> L(Mu);
  Values[Key] = V;
}

void Report::label(const std::string &Key, const std::string &V) {
  std::lock_guard<std::mutex> L(Mu);
  Labels[Key] = V;
}

void Report::check(bool Ok, const std::string &What) {
  std::lock_guard<std::mutex> L(Mu);
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < MaxFailureNotes)
    Failures.push_back(What);
}

void Report::mergeChecks(const Report &Other) {
  std::scoped_lock L(Mu, Other.Mu);
  Attempted += Other.Attempted;
  Failed += Other.Failed;
  for (const std::string &F : Other.Failures)
    if (Failures.size() < MaxFailureNotes)
      Failures.push_back(F);
}

bool Report::write(const std::string &Path, std::string *Err) const {
  std::lock_guard<std::mutex> L(Mu);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    *Err = "cannot write " + Path;
    return false;
  }
  std::fprintf(F, "{\"attempted\": %llu, \"failed\": %llu,\n",
               static_cast<unsigned long long>(Attempted),
               static_cast<unsigned long long>(Failed));
  std::fprintf(F, "\"failures\": [");
  for (size_t I = 0; I != Failures.size(); ++I)
    std::fprintf(F, "%s%s", I ? ", " : "", quote(Failures[I]).c_str());
  std::fprintf(F, "],\n\"labels\": {");
  const char *Sep = "";
  for (const auto &[K, V] : Labels) {
    std::fprintf(F, "%s\n  %s: %s", Sep, quote(K).c_str(), quote(V).c_str());
    Sep = ",";
  }
  std::fprintf(F, "},\n\"values\": {");
  Sep = "";
  for (const auto &[K, V] : Values) {
    std::fprintf(F, "%s\n  %s: %s", Sep, quote(K).c_str(), number(V).c_str());
    Sep = ",";
  }
  std::fprintf(F, "},\n\"samples\": {");
  Sep = "";
  for (const auto &[K, Vs] : Samples) {
    std::fprintf(F, "%s\n  %s: [", Sep, quote(K).c_str());
    for (size_t I = 0; I != Vs.size(); ++I)
      std::fprintf(F, "%s%s", I ? ", " : "", number(Vs[I]).c_str());
    std::fprintf(F, "]");
    Sep = ",";
  }
  std::fprintf(F, "}}\n");
  if (std::fclose(F) != 0) {
    *Err = "write failed on " + Path;
    return false;
  }
  return true;
}

} // namespace perfbench
