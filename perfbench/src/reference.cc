#include "reference.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Moments Combine(const Moments& a, const Moments& b) {
  if (a.count <= 0.0) {
    return b;
  }
  if (b.count <= 0.0) {
    return a;
  }
  Moments out;
  out.count = a.count + b.count;
  const double delta = b.mean - a.mean;
  out.mean = a.mean + delta * b.count / out.count;
  out.m2 = a.m2 + b.m2 + delta * delta * a.count * b.count / out.count;
  out.usage_sum = a.usage_sum + b.usage_sum;
  return out;
}

bool Near(double got, double want, double tol) {
  return std::fabs(got - want) <= tol * std::max(1.0, std::fabs(want));
}

bool SameTruncatedCount(int64_t got, double want, double tol) {
  const double slack = tol * std::max(1.0, std::fabs(want));
  const double low = static_cast<double>(got);
  return want >= low - slack && want < low + 1.0 + slack;
}

void ReferenceSpecs::AddTask(const std::string& job, const std::string& platform,
                             const std::string& task, const Moments& moments) {
  Window& window = window_[Key(job, platform)];
  window.all = Combine(window.all, moments);
  window.samples_per_task[task] += moments.count;
  window_samples_ += static_cast<int64_t>(moments.count);
}

void ReferenceSpecs::AddTaps(const TaskTaps& taps) {
  for (const auto& [task, tap] : taps) {
    AddTask(tap.job, tap.platform, task, tap.moments);
  }
}

std::map<ReferenceSpecs::Key, RefSpec> ReferenceSpecs::Build() {
  // Every retained key ages, whether or not it saw samples this window.
  for (auto& [key, history] : history_) {
    history.count *= history_weight_;
    history.m2 *= history_weight_;
  }
  std::map<Key, RefSpec> built;
  for (const auto& [key, window] : window_) {
    History& history = history_[key];
    const Moments& fresh = window.all;
    if (history.count <= 0.0) {
      history.count = fresh.count;
      history.mean = fresh.mean;
      history.m2 = fresh.m2;
      history.usage_mean = fresh.usage_sum / fresh.count;
    } else {
      const double total = history.count + fresh.count;
      const double delta = fresh.mean - history.mean;
      history.m2 += fresh.m2 + delta * delta * history.count * fresh.count / total;
      history.mean += delta * fresh.count / total;
      history.usage_mean += (fresh.usage_sum / fresh.count - history.usage_mean) *
                            fresh.count / total;
      history.count = total;
    }
    const double tasks = static_cast<double>(window.samples_per_task.size());
    const bool eligible = tasks >= static_cast<double>(min_tasks_) &&
                          fresh.count / tasks >= static_cast<double>(min_samples_per_task_);
    if (!eligible) {
      continue;
    }
    RefSpec spec;
    spec.num_samples = history.count;
    spec.cpi_mean = history.mean;
    spec.cpi_stddev = history.count > 1.0 ? std::sqrt(history.m2 / (history.count - 1.0)) : 0.0;
    spec.usage_mean = history.usage_mean;
    built[key] = spec;
    latest_[key] = spec;
  }
  window_.clear();
  window_samples_ = 0;
  return built;
}

}  // namespace perfbench
