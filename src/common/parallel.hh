/**
 * @file
 * A data-parallel loop for independent sweep points.
 *
 * The ablation harnesses and run_all.sh evaluate many self-contained
 * simulations (own EventQueue, own memory system, own engine) whose
 * only interaction is the order their rows are printed. parallelFor
 * runs them across threads: workers claim indices from an atomic
 * counter, every index writes into its own pre-sized result slot, and
 * the caller emits rows in index order afterwards — so the output is
 * bit-identical to a serial run at any job count. It is the only code
 * under src/ that starts a thread.
 *
 * Not for code that touches shared mutable state: the telemetry
 * TraceSink and the fault plan's RNG streams in particular are not
 * thread-safe, so sweep harnesses force --jobs=1 when either is
 * installed (bench::sweepJobs).
 */

#ifndef FAFNIR_COMMON_PARALLEL_HH
#define FAFNIR_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace fafnir
{

/** Hardware concurrency, at least 1 (the default for --jobs/-j). */
unsigned defaultJobs();

/**
 * Invoke body(i) for every i in [0, n), on min(jobs, n) threads.
 * jobs <= 1 runs inline with no thread machinery. If any invocation
 * throws, the first exception (by claim order) is rethrown in the
 * caller after all workers stop; remaining indices are abandoned.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &body);

} // namespace fafnir

#endif // FAFNIR_COMMON_PARALLEL_HH
