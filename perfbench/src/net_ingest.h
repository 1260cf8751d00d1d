// The networked collection workload: net_ingest.

#ifndef CPI2_PERFBENCH_NET_INGEST_H_
#define CPI2_PERFBENCH_NET_INGEST_H_

#include "common.h"

namespace perfbench {

Result RunNetIngest(const RunOptions& options);

}  // namespace perfbench

#endif  // CPI2_PERFBENCH_NET_INGEST_H_
