/**
 * @file
 * A grid point replayed stage by stage through the same public calls,
 * in the same order, that core::ExperimentRunner::runWithPreset makes.
 *
 * The benchmark uses it twice: the set-up-only pass that times
 * setup_s (stages up to the first simulated event), and the traced
 * run, which puts a span around every stage and reads each layer's
 * work counters through their public accessors at the span edges.
 * Nothing inside the library is instrumented.
 */

#ifndef ODBSIM_PERFBENCH_STAGED_HH
#define ODBSIM_PERFBENCH_STAGED_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/metrics.hh"
#include "perfmon/events.hh"

namespace odbsim::perfbench
{

using Clock = std::chrono::steady_clock;

/** One grid point of a workload. */
struct Point
{
    core::MachineKind machine = core::MachineKind::XeonQuadMp;
    unsigned warehouses = 10;
    unsigned processors = 4;

    core::OltpConfiguration config() const;
};

/** One timed stage of a traced point. */
struct Span
{
    std::string name;
    /** Index of the parent span in PointTrace::spans, -1 for the root. */
    int parent = -1;
    /** Seconds since the benchmark's time origin. */
    double start = 0.0;
    double end = 0.0;
    /** Deltas of public accessors over the span, by metric name. */
    std::vector<std::pair<std::string, double>> counts;

    double seconds() const { return end - start; }
    double count(const std::string &key) const;
};

/**
 * Everything a traced point produced: its spans (all sharing one
 * grid-point id) and the outputs that must match an untraced
 * ExperimentRunner::run of the same point bit for bit.
 */
struct PointTrace
{
    unsigned pointId = 0;
    Point point;
    std::vector<Span> spans;

    std::uint64_t txnsCommitted = 0;
    std::uint64_t eventsFired = 0;
    perfmon::SystemCounters counters;
    double bufferHitRatio = 0.0;
    double p95LatencyMs = 0.0;

    /** The span called @p name; fatal if absent. */
    const Span &span(const std::string &name) const;
};

/**
 * Host seconds to set up @p p: build os::System, db::Database plus
 * start(), odb::OdbWorkload plus start(), and Database::instantWarm —
 * everything before the first simulated event.
 */
double timeSetUp(const Point &p, const core::RunKnobs &knobs);

/**
 * Run @p p to completion with a span around every stage.
 * @param origin Time origin shared by every span of the run.
 */
PointTrace tracePoint(const Point &p, unsigned point_id,
                      const core::RunKnobs &knobs, Clock::time_point origin);

/**
 * Compare the traced outputs with an untraced run of the same point.
 * @return Empty when bit-identical, else one line per differing field.
 */
std::vector<std::string> diffTrace(const PointTrace &t,
                                   const core::RunResult &r);

} // namespace odbsim::perfbench

#endif // ODBSIM_PERFBENCH_STAGED_HH
