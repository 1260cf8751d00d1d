// CPI2 end-to-end benchmark: command line and result output.
//
//   cpi2_perfbench --workload <fleet_steady|antagonist_storm|net_ingest>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--size full|smoke] [--inject-us <us per machine-minute>]
//
// Progress and per-layer tables go to stdout; the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exits 1 when an output check failed, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "net_ingest.h"
#include "sim_workloads.h"
#include "util/logging.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "cpi2_perfbench: %s\nusage: cpi2_perfbench --workload "
               "<fleet_steady|antagonist_storm|net_ingest> --seed <n> --seconds <s> "
               "--trace <0|1> [--size full|smoke] [--inject-us <us>]\n",
               why);
  return 2;
}

void PrintJson(const Result& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--size") {
      if (std::strcmp(value, "smoke") == 0) {
        options.size = Size::kSmoke;
      } else if (std::strcmp(value, "full") != 0) {
        return Usage("--size must be full or smoke");
      }
    } else if (flag == "--inject-us") {
      options.inject_us_per_machine_minute = std::atof(value);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || options.seconds <= 0.0) {
    return Usage("--workload and a positive --seconds are required");
  }
  // Per-cap INFO lines would put stderr writes inside the timed window.
  cpi2::SetMinLogLevel(cpi2::LogLevel::kWarning);
  Note("workload", options.workload);
  Note("seed", static_cast<double>(options.seed));
  Note("trace", options.trace ? 1.0 : 0.0);
  if (options.inject_us_per_machine_minute > 0.0) {
    Note("injected busy-wait", options.inject_us_per_machine_minute, "us per machine-minute");
  }

  Result result;
  if (options.workload == "fleet_steady") {
    result = RunFleetSteady(options);
  } else if (options.workload == "antagonist_storm") {
    result = RunAntagonistStorm(options);
  } else if (options.workload == "net_ingest") {
    result = RunNetIngest(options);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (result.attempted < 1) {
    result.Fail("no operation was attempted");
  }
  for (Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.Fail("metric " + metric.name + " is not finite");
      metric.value = 0.0;
    }
  }
  for (const Metric& metric : result.metrics) {
    Note(metric.name, metric.value, metric.unit.c_str());
  }
  std::fflush(stdout);
  PrintJson(result);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
