// The three workloads. Each builds its data set from the seed (set-up,
// timed from the process start), runs its closed-loop mix for the given
// seconds, checks every answer against its own model, and returns the
// end-to-end metrics, or with a tracer the per-layer metrics.
#ifndef BDBMS_E2EBENCH_WORKLOADS_H_
#define BDBMS_E2EBENCH_WORKLOADS_H_

#include "harness.h"

namespace e2ebench {

Outcome RunCuration(const Args& args, Clock::time_point process_start,
                    HostProbe& probe, Tracer* tracer);
Outcome RunSequenceSearch(const Args& args, Clock::time_point process_start,
                          HostProbe& probe, Tracer* tracer);
Outcome RunDurableIngest(const Args& args, Clock::time_point process_start,
                         HostProbe& probe, Tracer* tracer);

}  // namespace e2ebench

#endif  // BDBMS_E2EBENCH_WORKLOADS_H_
