#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Result::Fail(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

bool Result::Check(bool ok, const std::string& what) {
  if (!ok) {
    Fail(what);
  }
  return ok;
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus_.push_back(cpu);
      }
    }
  }
}

int CpuRotation::Next() {
  if (cpus_.empty()) {
    return -1;
  }
  const int cpu = cpus_[next_++ % cpus_.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

void BusyWaitUs(double us) {
  if (us <= 0.0) {
    return;
  }
  const int64_t until = NowNs() + static_cast<int64_t>(us * 1e3);
  while (NowNs() < until) {
  }
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double ReferenceKernelSeconds() {
  static std::vector<double> level(4096, 1.0);
  static std::vector<double> used(4096, 0.0);
  const int64_t start = NowNs();
  uint64_t x = 88172645463325252ULL;
  auto next_unit = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return (static_cast<double>(x >> 11) + 0.5) * (1.0 / 9007199254740992.0);
  };
  double total = 0.0;
  for (int round = 0; round < 60; ++round) {
    for (size_t i = 0; i < level.size(); ++i) {
      const double u1 = next_unit();
      const double u2 = next_unit();
      const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
      const double demand = std::exp(-0.02 + 0.2 * z) * level[i];
      const double grant = demand > 1.5 ? 1.5 : demand;
      used[i] += grant * (1.0 + 0.3 * std::pow(grant / 1.5, 0.8));
      total += grant;
      level[i] = 0.999 * level[i] + 0.001;
    }
  }
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  if (total < 0.0) {
    std::printf("unreachable %f\n", total);  // keeps the work observable
  }
  return seconds;
}

void HostSpeed::Mark() { kernel_s_.push_back(ReferenceKernelSeconds()); }

double HostSpeed::Factor() const {
  const double kernel = Quantile(kernel_s_, 0.25);
  return kernel > 0.0 ? kReferenceKernelSeconds / kernel : 1.0;
}

int64_t LayerBreakdown::Sum() const {
  int64_t sum = 0;
  for (const auto& [name, ns] : self_ns) {
    sum += ns;
  }
  return sum;
}

double LayerBreakdown::PrintAndGap(const char* title) const {
  std::printf("-- %s: layer self times (total %.3f s) --\n", title,
              static_cast<double>(total_ns) * 1e-9);
  for (const auto& [name, ns] : self_ns) {
    std::printf("   %-28s %9.3f ms  %5.1f%%\n", name.c_str(), static_cast<double>(ns) * 1e-6,
                total_ns > 0 ? 100.0 * static_cast<double>(ns) / static_cast<double>(total_ns)
                             : 0.0);
  }
  const double gap = total_ns > 0 ? std::fabs(static_cast<double>(Sum() - total_ns)) /
                                        static_cast<double>(total_ns)
                                  : 1.0;
  std::printf("   %-28s %9.3f ms  (unattributed %.2f%%)\n", "sum of self times",
              static_cast<double>(Sum()) * 1e-6, 100.0 * gap);
  return gap;
}

void Note(const std::string& key, double value, const char* unit) {
  std::printf("%-36s %.6g %s\n", key.c_str(), value, unit);
}

void Note(const std::string& key, const std::string& value) {
  std::printf("%-36s %s\n", key.c_str(), value.c_str());
}

}  // namespace perfbench
