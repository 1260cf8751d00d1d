// The fixed forensics query mix and its linear-scan reference.

#ifndef CPI2_PERFBENCH_FORENSICS_H_
#define CPI2_PERFBENCH_FORENSICS_H_

#include <string>
#include <vector>

#include "common.h"
#include "core/incident_log.h"

namespace perfbench {

struct ForensicsMix {
  std::vector<cpi2::IncidentLog::Query> selects;
  struct Top {
    std::string victim_job;
    cpi2::MicroTime begin = 0;
    cpi2::MicroTime end = 0;
    int k = 0;
  };
  std::vector<Top> tops;
};

// A mix over the given jobs, machines and time span: per job a plain and a
// capped-only select plus a top-5 ranking, per machine a select, per quarter
// of the span a select and a top-10 ranking, and two whole-log queries.
ForensicsMix MakeForensicsMix(const std::vector<std::string>& jobs,
                              const std::vector<std::string>& machines, cpi2::MicroTime begin,
                              cpi2::MicroTime end);

// Checks every answer of the mix against a linear scan of log.incidents().
// Returns the number of answers checked.
int CheckForensics(const cpi2::IncidentLog& log, const ForensicsMix& mix, Result* result);

struct ForensicsTiming {
  double queries_per_s = 0.0;
  double select_us = 0.0;
  double top_antagonists_us = 0.0;
};

// Runs the mix repeatedly for about `seconds` of host time.
ForensicsTiming TimeForensics(const cpi2::IncidentLog& log, const ForensicsMix& mix,
                              double seconds);

}  // namespace perfbench

#endif  // CPI2_PERFBENCH_FORENSICS_H_
