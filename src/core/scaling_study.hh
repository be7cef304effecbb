/**
 * @file
 * ScalingStudy: the paper's full characterization sweep — measure a
 * grid of (warehouses × processors) configurations and derive the
 * Section 6 piecewise-linear models and pivot points.
 *
 * Grid points are independent simulations (each derives every RNG
 * stream from its own seed), so the sweep can run them on several host
 * threads; see StudyConfig::jobs. The StudyResult is bit-identical for
 * any jobs value.
 */

#ifndef ODBSIM_CORE_SCALING_STUDY_HH
#define ODBSIM_CORE_SCALING_STUDY_HH

#include <functional>
#include <vector>

#include "analysis/piecewise.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"

namespace odbsim::core
{

/**
 * @brief Sweep definition: the (warehouses × processors) grid, the
 * machine preset, the per-run simulation knobs, and the host-side
 * execution policy.
 */
struct StudyConfig
{
    /** Warehouse axis (workload scale), ascending. */
    std::vector<unsigned> warehouses = {10,  25,  35,  50,  75,  100,
                                        150, 200, 300, 400, 600, 800};
    /** Processor-count axis; one StudySeries per entry. */
    std::vector<unsigned> processors = {1, 2, 4};
    /** Machine preset every point is measured on. */
    MachineKind machine = MachineKind::XeonQuadMp;
    /** Simulation-control knobs shared by every point (seed included;
     *  per-point streams are derived from it plus the configuration). */
    RunKnobs knobs;
    /**
     * Host threads used to execute grid points concurrently
     * (sim::parallelFor).
     *
     * 0 = one thread per hardware thread (auto); 1 = the serial path,
     * in grid order; N>1 = N threads claiming points longest-first
     * (largest warehouses × processors first). The StudyResult is
     * bit-identical for every value — points are independent and are
     * collected by grid index, not completion order. Only the
     * invocation order of onPoint changes.
     */
    unsigned jobs = 1;
    /**
     * Optional progress callback (per finished configuration).
     *
     * With jobs != 1 it is invoked from worker threads, serialized by
     * an internal mutex (so plain stdio printing is safe), in
     * completion order rather than grid order.
     */
    std::function<void(const RunResult &)> onPoint;
};

/** @brief All measurements for one processor count. */
struct StudySeries
{
    /** Processor count this series was measured at. */
    unsigned processors = 0;
    std::vector<RunResult> points; ///< Ordered by warehouses.

    /**
     * @brief Extract one metric across the warehouse axis.
     * @param get Projection from a measured point to the metric value.
     * @return One value per point, in warehouse order.
     */
    std::vector<double>
    metric(const std::function<double(const RunResult &)> &get) const
    {
        std::vector<double> out;
        out.reserve(points.size());
        for (const auto &p : points)
            out.push_back(get(p));
        return out;
    }

    /** @brief The warehouse axis as doubles (for the fitters). */
    std::vector<double> warehouseAxis() const;

    /** @brief Two-segment fit of CPI over warehouses (Figure 17). */
    analysis::PiecewiseFit cpiFit() const;

    /** @brief Two-segment fit of L3 MPI over warehouses (Figure 18). */
    analysis::PiecewiseFit mpiFit() const;
};

/** @brief Full study output: one series per processor count. */
struct StudyResult
{
    std::vector<StudySeries> series; ///< One per processor count.

    /**
     * @brief The series measured with @p p processors.
     * Fatal if the study holds no such series.
     */
    const StudySeries &forProcessors(unsigned p) const;
};

/**
 * @brief Runs the sweep described by a StudyConfig.
 */
class ScalingStudy
{
  public:
    /**
     * @brief Measure every (warehouses, processors) grid point.
     *
     * With cfg.jobs != 1 the independent points run on
     * sim::parallelFor, largest W × P first; results land in their
     * grid slot regardless of completion order, so the returned
     * StudyResult is bit-identical to the serial path.
     * A failure (fatal/panic) in any point terminates the process
     * exactly as in the serial path.
     */
    static StudyResult run(const StudyConfig &cfg);
};

} // namespace odbsim::core

#endif // ODBSIM_CORE_SCALING_STUDY_HH
