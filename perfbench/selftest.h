// The benchmark's own test: every check passes on an exact result and
// fails on a deliberately perturbed one, and every workload runs to its
// end, checks included, at a tiny scale.

#ifndef FLEXSTREAM_PERFBENCH_SELFTEST_H_
#define FLEXSTREAM_PERFBENCH_SELFTEST_H_

#include "common.h"

namespace perfbench {

/// Returns the process exit code: 0 when every case passed.
int RunSelfTest(const RunArgs& args);

}  // namespace perfbench

#endif  // FLEXSTREAM_PERFBENCH_SELFTEST_H_
