// The benchmark's workloads.  Each runs its own set-up, measures for
// Options::seconds, checks every output, and returns the metrics named in
// BENCHMARK.json (end-to-end always; per-layer too when traced).
#pragma once

#include "measure.h"
#include "spans.h"

namespace perfbench {

/// The paper's Fig. 5/6 grid, solved offline by a fresh core::Game per
/// scenario; one operation is one pass over all 40 scenarios.
Report run_solve_paper(const Options& options, Tracer* tracer);

/// Closed loop: one caller against the exact engine at N = 4096, C = 64.
Report run_serve_exact(const Options& options, Tracer* tracer);

/// Open loop: Poisson arrivals against the journaled mean-field engine at
/// N = 500,000, C = 10, with admin-plane snapshot reads.
Report run_serve_durable(const Options& options, Tracer* tracer);

}  // namespace perfbench
