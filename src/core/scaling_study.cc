#include "core/scaling_study.hh"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <vector>

#include "sim/logging.hh"
#include "sim/parallel_for.hh"

namespace odbsim::core
{

std::vector<double>
StudySeries::warehouseAxis() const
{
    std::vector<double> xs;
    xs.reserve(points.size());
    for (const auto &p : points)
        xs.push_back(static_cast<double>(p.warehouses));
    return xs;
}

analysis::PiecewiseFit
StudySeries::cpiFit() const
{
    const auto xs = warehouseAxis();
    const auto ys = metric([](const RunResult &r) { return r.cpi; });
    return analysis::fitTwoSegment(xs, ys);
}

analysis::PiecewiseFit
StudySeries::mpiFit() const
{
    const auto xs = warehouseAxis();
    const auto ys = metric([](const RunResult &r) { return r.mpi; });
    return analysis::fitTwoSegment(xs, ys);
}

const StudySeries &
StudyResult::forProcessors(unsigned p) const
{
    for (const auto &s : series) {
        if (s.processors == p)
            return s;
    }
    odbsim_fatal("no series for ", p, " processors in study result");
}

StudyResult
ScalingStudy::run(const StudyConfig &cfg)
{
    odbsim_assert(!cfg.warehouses.empty() && !cfg.processors.empty(),
                  "empty study grid");

    const std::size_t nw = cfg.warehouses.size();
    const std::size_t total = cfg.processors.size() * nw;

    // Pre-size the grid so every point has a fixed slot: results are
    // collected by grid index, never by completion order, which is
    // what keeps the parallel path bit-identical to the serial one.
    StudyResult out;
    out.series.resize(cfg.processors.size());
    for (std::size_t pi = 0; pi < cfg.processors.size(); ++pi) {
        out.series[pi].processors = cfg.processors[pi];
        out.series[pi].points.resize(nw);
    }

    // Longest-first (LPT) dispatch on the parallel path: the most
    // expensive points start earliest, so no thread is left finishing
    // a huge point alone at the end. W × P tracks a point's simulated
    // work. The sort is stable, so equal-cost points keep grid order;
    // the serial path keeps grid order throughout. Pure makespan
    // optimization: results land in their grid slot either way.
    std::vector<std::size_t> order(total);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (cfg.jobs != 1) {
        const auto cost = [&](std::size_t g) {
            return static_cast<std::uint64_t>(cfg.warehouses[g % nw]) *
                   cfg.processors[g / nw];
        };
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return cost(a) > cost(b);
                         });
    }

    std::mutex progress_mutex;
    sim::parallelFor(cfg.jobs, total, [&](std::size_t k) {
        const std::size_t pi = order[k] / nw;
        const std::size_t wi = order[k] % nw;
        OltpConfiguration point;
        point.warehouses = cfg.warehouses[wi];
        point.processors = cfg.processors[pi];
        point.machine = cfg.machine;
        RunResult r = ExperimentRunner::run(point, cfg.knobs);
        if (cfg.onPoint) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            cfg.onPoint(r);
        }
        out.series[pi].points[wi] = std::move(r);
    });
    return out;
}

} // namespace odbsim::core
