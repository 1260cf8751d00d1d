#include "forensics.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "reference.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using cpi2::Incident;
using cpi2::IncidentAction;
using cpi2::IncidentLog;
using cpi2::MicroTime;

bool InRange(MicroTime t, MicroTime begin, MicroTime end) {
  return (begin == 0 || t >= begin) && (end == 0 || t < end);
}

// The query semantics as documented on ForensicsIndex::Query, by scan.
std::vector<const Incident*> ScanSelect(const IncidentLog& log, const IncidentLog::Query& q) {
  std::vector<const Incident*> out;
  for (const Incident& incident : log.incidents()) {
    const bool keep =
        (q.victim_job.empty() || incident.victim_job == q.victim_job) &&
        (q.machine.empty() || incident.machine == q.machine) &&
        InRange(incident.timestamp, q.begin, q.end) &&
        (q.min_top_correlation <= 0.0 ||
         (!incident.suspects.empty() &&
          incident.suspects.front().correlation >= q.min_top_correlation)) &&
        (!q.capped_only || incident.action == IncidentAction::kHardCap);
    if (keep) {
      out.push_back(&incident);
    }
  }
  return out;
}

struct TopStats {
  int incidents = 0;
  int times_capped = 0;
  double max_correlation = 0.0;
  double correlation_sum = 0.0;
};

std::map<std::string, TopStats> ScanTop(const IncidentLog& log, const ForensicsMix::Top& top) {
  std::map<std::string, TopStats> by_job;
  for (const Incident& incident : log.incidents()) {
    if ((!top.victim_job.empty() && incident.victim_job != top.victim_job) ||
        !InRange(incident.timestamp, top.begin, top.end) || incident.suspects.empty()) {
      continue;
    }
    const cpi2::Suspect& best = incident.suspects.front();
    TopStats& stats = by_job[best.jobname];
    ++stats.incidents;
    if (incident.action == IncidentAction::kHardCap && incident.action_target == best.task) {
      ++stats.times_capped;
    }
    stats.max_correlation = std::max(stats.max_correlation, best.correlation);
    stats.correlation_sum += best.correlation;
  }
  return by_job;
}

// Ranking order: more incidents first, then the higher peak correlation.
bool RanksBefore(int incidents_a, double max_a, int incidents_b, double max_b) {
  return incidents_a != incidents_b ? incidents_a > incidents_b : max_a > max_b;
}

}  // namespace

ForensicsMix MakeForensicsMix(const std::vector<std::string>& jobs,
                              const std::vector<std::string>& machines, MicroTime begin,
                              MicroTime end) {
  ForensicsMix mix;
  for (const std::string& job : jobs) {
    IncidentLog::Query plain;
    plain.victim_job = job;
    mix.selects.push_back(plain);
    IncidentLog::Query capped = plain;
    capped.capped_only = true;
    mix.selects.push_back(capped);
    mix.tops.push_back({job, 0, 0, 5});
  }
  for (const std::string& machine : machines) {
    IncidentLog::Query query;
    query.machine = machine;
    mix.selects.push_back(query);
  }
  const MicroTime quarter = std::max<MicroTime>(1, (end - begin) / 4);
  for (int i = 0; i < 4; ++i) {
    IncidentLog::Query query;
    query.begin = begin + i * quarter;
    query.end = begin + (i + 1) * quarter;
    mix.selects.push_back(query);
    mix.tops.push_back({"", query.begin, query.end, 10});
  }
  IncidentLog::Query strong;
  strong.min_top_correlation = 0.35;
  mix.selects.push_back(strong);
  mix.tops.push_back({"", 0, 0, 0});
  return mix;
}

int CheckForensics(const IncidentLog& log, const ForensicsMix& mix, Result* result) {
  int checked = 0;
  for (const IncidentLog::Query& query : mix.selects) {
    const std::vector<const Incident*> got = log.Select(query);
    const std::vector<const Incident*> want = ScanSelect(log, query);
    result->Check(got == want, cpi2::StrFormat("Select(job=%s machine=%s [%lld,%lld)) returned "
                                               "%zu rows, scan finds %zu",
                                               query.victim_job.c_str(), query.machine.c_str(),
                                               static_cast<long long>(query.begin),
                                               static_cast<long long>(query.end), got.size(),
                                               want.size()));
    ++checked;
  }
  for (const ForensicsMix::Top& top : mix.tops) {
    const std::vector<IncidentLog::AntagonistStats> got =
        log.TopAntagonists(top.victim_job, top.begin, top.end, top.k);
    const std::map<std::string, TopStats> want = ScanTop(log, top);
    const size_t expect_size =
        top.k > 0 ? std::min(want.size(), static_cast<size_t>(top.k)) : want.size();
    bool ok = got.size() == expect_size;
    for (size_t i = 0; ok && i < got.size(); ++i) {
      const auto it = want.find(got[i].jobname);
      ok = it != want.end() && it->second.incidents == got[i].incidents &&
           it->second.times_capped == got[i].times_capped &&
           it->second.max_correlation == got[i].max_correlation &&
           Near(got[i].mean_correlation,
                it->second.correlation_sum / static_cast<double>(it->second.incidents), 1e-12);
      if (ok && i > 0) {
        ok = !RanksBefore(got[i].incidents, got[i].max_correlation, got[i - 1].incidents,
                          got[i - 1].max_correlation);
      }
    }
    // Whatever the cut left out must not rank before the last entry kept.
    if (ok && !got.empty()) {
      for (const auto& [job, stats] : want) {
        const bool kept = std::any_of(got.begin(), got.end(), [&](const auto& entry) {
          return entry.jobname == job;
        });
        if (!kept && RanksBefore(stats.incidents, stats.max_correlation, got.back().incidents,
                                 got.back().max_correlation)) {
          ok = false;
        }
      }
    }
    result->Check(ok, cpi2::StrFormat("TopAntagonists(job=%s k=%d) disagrees with the scan",
                                      top.victim_job.c_str(), top.k));
    ++checked;
  }
  return checked;
}

ForensicsTiming TimeForensics(const IncidentLog& log, const ForensicsMix& mix, double seconds) {
  LayerClock select;
  LayerClock top;
  size_t sink = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    for (const IncidentLog::Query& query : mix.selects) {
      const int64_t start = NowNs();
      sink += log.Select(query).size();
      select.ns += NowNs() - start;
      ++select.calls;
    }
    for (const ForensicsMix::Top& t : mix.tops) {
      const int64_t start = NowNs();
      sink += log.TopAntagonists(t.victim_job, t.begin, t.end, t.k).size();
      top.ns += NowNs() - start;
      ++top.calls;
    }
  } while (NowNs() < deadline);
  ForensicsTiming timing;
  const double total_ns = static_cast<double>(select.ns + top.ns);
  timing.queries_per_s = static_cast<double>(select.calls + top.calls) / (total_ns * 1e-9);
  timing.select_us = static_cast<double>(select.ns) * 1e-3 / static_cast<double>(select.calls);
  timing.top_antagonists_us = static_cast<double>(top.ns) * 1e-3 / static_cast<double>(top.calls);
  if (sink == static_cast<size_t>(-1)) {
    std::printf("unreachable\n");  // keeps the query results observable
  }
  return timing;
}

}  // namespace perfbench
