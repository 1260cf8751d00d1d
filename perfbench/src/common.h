// Shared plumbing for the CPI2 end-to-end benchmark: run options, the
// result record every workload fills, host-time helpers, robust estimators,
// and the in-memory span accounting used by the traced runs.

#ifndef CPI2_PERFBENCH_COMMON_H_
#define CPI2_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Size { kFull, kSmoke };

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  // Sensitivity check: a busy-wait worth this many microseconds per
  // machine-minute at the reference speed (see HostSpeed), placed inside
  // the timed control-loop window (the benchmark's own tick listener, or
  // its frame handler). 0 = off.
  double inject_us_per_machine_minute = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `attempted`/`failed` count the checked
// operations; any failed output check sets correct = false.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  // Records a failed output check: prints it to stderr and clears `correct`.
  void Fail(const std::string& what);
  // Checks `ok`; on failure records `what`. Returns ok.
  bool Check(bool ok, const std::string& what);
};

// --- host time ---------------------------------------------------------------
using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Moves the calling thread to the next CPU it may run on, round robin, and
// returns that CPU. On a shared host each CPU's speed depends on what its
// neighbours run; rotating every equal-work window samples all of them, so
// a run is not stuck on whichever CPU happened to be slow.
class CpuRotation {
 public:
  CpuRotation();
  int Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Spins (no sleep, no syscall) until `us` microseconds of host time passed.
void BusyWaitUs(double us);

// Peak resident set of this process, MiB.
double PeakRssMib();

// --- estimators --------------------------------------------------------------
double Median(std::vector<double> values);
// Quantile with linear interpolation between order statistics, q in [0, 1]
// (Python's statistics.quantiles "inclusive" method).
double Quantile(std::vector<double> values, double q);
// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);

// --- host-speed normalization --------------------------------------------------
// This host's speed drifts by tens of percent over minutes with what other
// tenants run, so a whole run can land in a slow stretch. Host times are
// therefore reported at a reference speed: the run interleaves a fixed
// reference kernel (benchmark code, shaped like the simulator's hot loop:
// lognormal draws, exp/pow, passes over small per-task arrays) with its
// equal-work windows, and scales host times by
// kReferenceKernelSeconds / (lower quartile of the kernel's times).

// Host time of one run of the reference kernel.
double ReferenceKernelSeconds();

// The kernel's time at the reference speed: roughly its lower quartile on
// the 4-vCPU host the benchmark was written on.
inline constexpr double kReferenceKernelSeconds = 0.020;

class HostSpeed {
 public:
  // Runs the kernel once.
  void Mark();
  // Host seconds -> reference seconds.
  double Factor() const;
  const std::vector<double>& kernel_seconds() const { return kernel_s_; }

 private:
  std::vector<double> kernel_s_;
};

// --- traced-run accounting ---------------------------------------------------
// A layer's accumulated self time (ns) and call count. Spans are recorded
// around the calls into each layer's public functions from the benchmark's
// own code; a parent subtracts the time its children covered.
struct LayerClock {
  int64_t ns = 0;
  int64_t calls = 0;
};

// Named per-layer self times of one traced run, plus its measured total.
struct LayerBreakdown {
  std::vector<std::pair<std::string, int64_t>> self_ns;
  int64_t total_ns = 0;

  int64_t Sum() const;
  // Prints the table and returns |sum - total| / total.
  double PrintAndGap(const char* title) const;
};

// Human-readable "key: value" progress line on stdout (never the last line).
void Note(const std::string& key, double value, const char* unit = "");
void Note(const std::string& key, const std::string& value);

}  // namespace perfbench

#endif  // CPI2_PERFBENCH_COMMON_H_
