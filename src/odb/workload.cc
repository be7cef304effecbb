#include "odb/workload.hh"

#include <memory>

#include "odb/server_process.hh"
#include "sim/logging.hh"

namespace odbsim::odb
{

OdbWorkload::OdbWorkload(db::Database &database, const WorkloadConfig &cfg)
    : db_(database), cfg_(cfg), planner_(database, cfg.mix),
      rng_(cfg.seed)
{
    odbsim_assert(cfg.clients >= 1, "workload needs at least one client");
}

void
OdbWorkload::start()
{
    odbsim_assert(!started_, "workload already started");
    started_ = true;
    const unsigned w_cnt = db_.schema().warehouses();
    os::System &sys = db_.sys();
    homes_.clear();
    for (unsigned i = 0; i < cfg_.clients; ++i) {
        // The home warehouse only seeds the server; every transaction
        // picks its warehouse uniformly (see ServerProcess::next), so
        // the working set spans the whole database as W scales.
        const std::uint32_t home = i % w_cnt;
        homes_.push_back(home);
        sys.spawn(std::make_unique<ServerProcess>(db_, *this, planner_,
                                                  home, rng_.fork()));
    }
}

void
OdbWorkload::recordCommit(db::TxnType type, Tick latency)
{
    const unsigned i = static_cast<unsigned>(type);
    ++counts_[i];
    const double ms = secondsFromTicks(latency) * 1e3;
    latency_[i].add(ms);
    latencyHist_.add(ms);
}

std::uint64_t
OdbWorkload::committed() const
{
    std::uint64_t n = 0;
    for (const auto c : counts_)
        n += c;
    return n;
}

double
OdbWorkload::tps(Tick window) const
{
    if (window == 0)
        return 0.0;
    return static_cast<double>(committed()) / secondsFromTicks(window);
}

void
OdbWorkload::resetStats()
{
    for (auto &c : counts_)
        c = 0;
    for (auto &l : latency_)
        l.reset();
    latencyHist_.reset();
}

} // namespace odbsim::odb
