//===- perfbench/Report.h - Raw measurements of one benchmark run --------===//
//
// What a workload hands to perfbench/run.py: raw samples (one number per
// timed operation), scalar values and counters, text labels, and the
// attempted/failed tally of every checked answer. run.py turns these
// into the named metrics (medians, percentiles, geometric means), so all
// statistics live in one place (perfbench/stats.py) and are unit-tested.
//
// Thread-safe: the serve workload records from several client threads.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Report {
public:
  /// Appends one sample to the series \p Key.
  void sample(const std::string &Key, double V);
  /// Sets the scalar \p Key.
  void set(const std::string &Key, double V);
  void label(const std::string &Key, const std::string &V);

  /// Counts one checked operation; a false \p Ok is a failure and
  /// \p What (kept for the first few failures) says which check failed.
  void check(bool Ok, const std::string &What);
  /// Adds \p Other's attempted/failed tally and failure notes to ours.
  void mergeChecks(const Report &Other);

  /// Writes everything as one JSON object.
  bool write(const std::string &Path, std::string *Err) const;

private:
  mutable std::mutex Mu;
  std::map<std::string, std::vector<double>> Samples;
  std::map<std::string, double> Values;
  std::map<std::string, std::string> Labels;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
