// The two simulated-deployment workloads: fleet_steady and antagonist_storm.

#ifndef CPI2_PERFBENCH_SIM_WORKLOADS_H_
#define CPI2_PERFBENCH_SIM_WORKLOADS_H_

#include <cstdint>
#include <memory>

#include "common.h"
#include "sim/cluster.h"

namespace perfbench {

// fleet_steady's cluster at `size`: its machines, its one fixed draw of the
// Figure 1 job mix, placed by the scheduler seeded with `placement_seed`.
// Not ticked. net_ingest takes its agents' tasks and its cell from it.
std::unique_ptr<cpi2::Cluster> MakeFleet(Size size, uint64_t placement_seed);

Result RunFleetSteady(const RunOptions& options);
Result RunAntagonistStorm(const RunOptions& options);

}  // namespace perfbench

#endif  // CPI2_PERFBENCH_SIM_WORKLOADS_H_
