/**
 * @file
 * Host-speed calibration. On a shared host the program's speed swings
 * by up to 1.6x within seconds and drifts over minutes, with what other
 * tenants run on the same cores: the same code ran lookup-analytic at
 * 2.3 or 3.7 ms per batch from one second to the next. A fixed kernel
 * owned by the benchmark, timed between the program's calls, swings
 * with it (over 200 ms windows: correlation 0.74-0.89, log-log slope
 * 0.96-1.13 on the three workloads); host times multiplied by the
 * kernel's reference-to-measured time are stated at a fixed reference
 * speed and stay comparable across runs.
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

#include <cstdint>
#include <vector>

namespace perfbench
{

class Calibration
{
  public:
    /** Median time of one kernel run on the reference host (a 4-vCPU
     *  Intel Xeon VM with 2 MiB L2 per core, GCC 12 -O3), in ns. */
    static constexpr double kReferenceNs = 1.4e6;

    Calibration();

    /**
     * Time one kernel run: insert fixed shuffled keys into a std::map,
     * then look up as many neighbouring keys; branchy, pointer-chasing,
     * allocating work like the simulator's. Returns host ns.
     */
    double timeOnceNs() const;

    /** kReferenceNs over the median of @p runs kernel runs. */
    double toReference(int runs) const;

  private:
    std::vector<std::uint32_t> keys_;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
