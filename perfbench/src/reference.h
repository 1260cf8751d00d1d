// Independent reference for the aggregator's CPI specs.
//
// Recomputes, from the samples the benchmark itself saw, what every spec
// must be under the paper's aggregation rules (section 3.1): per job x
// platform, a job needs >= min_tasks tasks and an average of >=
// min_samples_per_task samples per task in the build window; history from
// earlier builds is aged by history_weight (~0.9) before being merged with
// the new window. Shares no code with core/spec_builder: the moments are
// kept per task and combined with Chan's parallel-variance update, so a
// match within floating-point tolerance is evidence, not an echo.

#ifndef CPI2_PERFBENCH_REFERENCE_H_
#define CPI2_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>

namespace perfbench {

// Count / mean / sum of squared deviations, plus the usage sum.
struct Moments {
  double count = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
  double usage_sum = 0.0;

  void Add(double cpi, double usage) {
    count += 1.0;
    const double delta = cpi - mean;
    mean += delta / count;
    m2 += delta * (cpi - mean);
    usage_sum += usage;
  }
};

// One tap's per-task accumulation over a build window.
struct TaskTap {
  std::string job;
  std::string platform;
  Moments moments;
};
using TaskTaps = std::unordered_map<std::string, TaskTap>;  // by task name

struct RefSpec {
  double num_samples = 0.0;  // age-weighted effective count
  double cpi_mean = 0.0;
  double cpi_stddev = 0.0;
  double usage_mean = 0.0;
};

class ReferenceSpecs {
 public:
  using Key = std::pair<std::string, std::string>;  // (jobname, platforminfo)

  ReferenceSpecs(double history_weight, int min_tasks, int min_samples_per_task)
      : history_weight_(history_weight),
        min_tasks_(min_tasks),
        min_samples_per_task_(min_samples_per_task) {}

  // Folds one task's window moments into the open build window.
  void AddTask(const std::string& job, const std::string& platform, const std::string& task,
               const Moments& moments);
  void AddTaps(const TaskTaps& taps);

  // Closes the window exactly as a spec build does and returns the specs of
  // the keys eligible in this window.
  std::map<Key, RefSpec> Build();

  // Every key's spec from the last build it was eligible in: a key that is
  // not eligible in a later window keeps its older spec (the aggregator
  // serves it until the key rebuilds).
  const std::map<Key, RefSpec>& latest() const { return latest_; }

  int64_t window_samples() const { return window_samples_; }

 private:
  struct History {
    double count = 0.0;
    double mean = 0.0;
    double m2 = 0.0;
    double usage_mean = 0.0;
  };
  struct Window {
    Moments all;
    std::map<std::string, double> samples_per_task;
  };

  double history_weight_;
  int min_tasks_;
  int min_samples_per_task_;
  std::map<Key, History> history_;
  std::map<Key, Window> window_;
  std::map<Key, RefSpec> latest_;
  int64_t window_samples_ = 0;
};

// Chan et al. combination of two moment sets.
Moments Combine(const Moments& a, const Moments& b);

// True when |got - want| <= tol * max(1, |want|).
bool Near(double got, double want, double tol);

// A spec's num_samples is its age-weighted count truncated to an integer.
// True when `got` is that truncation of `want`, allowing `want` to sit
// within relative `tol` of an integer boundary: the builder and the
// reference age the count in different orders, so 54 may arrive as
// 53.999999999.
bool SameTruncatedCount(int64_t got, double want, double tol);

}  // namespace perfbench

#endif  // CPI2_PERFBENCH_REFERENCE_H_
