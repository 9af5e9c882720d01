// The one fan-out the harness uses to run independent simulation cells on
// several cores. Each task must be self-contained: the simulator and every
// layer below it are single-threaded by design, so parallelism lives one
// level up — whole machines (one per experiment cell or fleet machine) run
// concurrently and never share mutable state. That independence, not the
// order tasks are claimed in, is what makes results identical at any job
// count.
#pragma once

#include <cstddef>
#include <functional>

namespace pipette {

/// Hardware concurrency, at least 1 (the standard allows 0 = unknown).
unsigned default_threads();

/// Calls fn(i) once for every i in [0, n). `jobs` = 0 means
/// default_threads(). With min(jobs, n) <= 1 the calls run serially on the
/// caller's thread in index order; otherwise min(jobs, n) threads claim
/// indices from a shared counter and the call returns once every thread has
/// joined. A task exception propagates: serially at once, threaded as the
/// first exception thrown, rethrown after the join (the other indices still
/// run).
void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace pipette
