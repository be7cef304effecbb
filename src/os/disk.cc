#include "os/disk.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "sim/logging.hh"

namespace odbsim::os
{

namespace
{

void
checkLatency(double v, const char *name)
{
    if (!std::isfinite(v) || v < 0.0)
        odbsim_fatal("disk config: ", name,
                     " must be finite and >= 0, got ", v);
}

} // namespace

Disk::Disk(std::string name, const DiskConfig &cfg, EventQueue &eq,
           std::uint64_t seed)
    : name_(std::move(name)), cfg_(cfg), eq_(eq), rng_(seed)
{
    checkLatency(cfg.randomPositionMs, "randomPositionMs");
    checkLatency(cfg.minPositionMs, "minPositionMs");
    checkLatency(cfg.writePositionMs, "writePositionMs");
    checkLatency(cfg.sequentialMs, "sequentialMs");
    if (!std::isfinite(cfg.transferMbPerSec) ||
        cfg.transferMbPerSec <= 0.0) {
        odbsim_fatal("disk config: transferMbPerSec must be > 0, got ",
                     cfg.transferMbPerSec);
    }
}

Tick
Disk::serviceTicks(const DiskRequest &req)
{
    const double transfer_ms =
        static_cast<double>(req.bytes) /
        (cfg_.transferMbPerSec * 1e6) * 1e3;
    double position_ms;
    if (req.sequential) {
        position_ms = cfg_.sequentialMs;
    } else {
        // Exponential spread around the mean, floored at the minimum
        // positioning time. Asynchronous writes destage through the
        // controller's write-behind cache in elevator order.
        const double mean =
            req.write ? cfg_.writePositionMs : cfg_.randomPositionMs;
        position_ms =
            cfg_.minPositionMs +
            rng_.exponential(std::max(0.05, mean - cfg_.minPositionMs));
    }
    return ticksFromMs(position_ms + transfer_ms);
}

void
Disk::submit(DiskRequest req)
{
    auto &q = req.write ? writeQueue_ : readQueue_;
    q.pushBack(QueuedReq{std::move(req), eq_.curTick()});
    if (!busy_)
        startNext();
}

void
Disk::startNext()
{
    // Demand reads preempt queued write-behind destaging.
    auto &q = !readQueue_.empty() ? readQueue_ : writeQueue_;
    odbsim_assert(!q.empty(), "startNext on empty disk queue");
    busy_ = true;
    busySince_ = eq_.curTick();

    QueuedReq qr = q.popFront();
    current_ = std::move(qr.req);
    currentQueuedAt_ = qr.queuedAt;
    eq_.scheduleAfter(serviceTicks(current_), [this] { complete(); });
}

void
Disk::complete()
{
    const Tick now = eq_.curTick();
    busyTicks_ += now - busySince_;
    latency_.add(secondsFromTicks(now - currentQueuedAt_) * 1e3);
    if (current_.write) {
        ++writes_;
        bytesWritten_ += current_.bytes;
    } else {
        ++reads_;
        bytesRead_ += current_.bytes;
    }
    std::function<void()> cb = std::move(current_.onComplete);
    current_ = DiskRequest{};
    busy_ = false;
    if (!readQueue_.empty() || !writeQueue_.empty())
        startNext();
    if (cb)
        cb();
}

void
Disk::resetStats()
{
    reads_ = 0;
    writes_ = 0;
    bytesRead_ = 0;
    bytesWritten_ = 0;
    latency_.reset();
    busyTicks_ = 0;
}

DiskArray::DiskArray(const DiskArrayConfig &cfg, EventQueue &eq,
                     std::uint64_t seed)
{
    odbsim_assert(cfg.dataDisks >= 1, "need at least one data disk");
    odbsim_assert(cfg.logDisks >= 1, "need at least one log disk");
    for (unsigned i = 0; i < cfg.dataDisks; ++i) {
        dataDisks_.push_back(std::make_unique<Disk>(
            "data" + std::to_string(i), cfg.disk, eq, seed + i));
    }
    for (unsigned i = 0; i < cfg.logDisks; ++i) {
        logDisks_.push_back(std::make_unique<Disk>(
            "log" + std::to_string(i), cfg.disk, eq,
            seed + 1000 + i));
    }
}

Disk &
DiskArray::routeData(std::uint64_t block_id)
{
    // Multiplicative hash spreads block ids over the stripe set.
    const std::uint64_t h = block_id * 0x9e3779b97f4a7c15ULL;
    return *dataDisks_[h % dataDisks_.size()];
}

void
DiskArray::readBlock(std::uint64_t block_id, std::uint64_t bytes,
                     std::function<void()> on_complete)
{
    routeData(block_id).submit(
        DiskRequest{bytes, false, false, std::move(on_complete)});
}

void
DiskArray::writeBlock(std::uint64_t block_id, std::uint64_t bytes,
                      std::function<void()> on_complete)
{
    routeData(block_id).submit(
        DiskRequest{bytes, true, false, std::move(on_complete)});
}

void
DiskArray::writeLog(std::uint64_t bytes, std::function<void()> on_complete)
{
    Disk &d = *logDisks_[nextLogDisk_];
    nextLogDisk_ = (nextLogDisk_ + 1) % logDisks_.size();
    d.submit(DiskRequest{bytes, true, true, std::move(on_complete)});
}

std::uint64_t
DiskArray::totalReads() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->completedReads();
    for (const auto &d : logDisks_)
        n += d->completedReads();
    return n;
}

std::uint64_t
DiskArray::totalWrites() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->completedWrites();
    for (const auto &d : logDisks_)
        n += d->completedWrites();
    return n;
}

std::uint64_t
DiskArray::totalBytesRead() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->bytesRead();
    for (const auto &d : logDisks_)
        n += d->bytesRead();
    return n;
}

std::uint64_t
DiskArray::totalBytesWritten() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->bytesWritten();
    for (const auto &d : logDisks_)
        n += d->bytesWritten();
    return n;
}

std::uint64_t
DiskArray::dataReads() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->completedReads();
    return n;
}

std::uint64_t
DiskArray::dataWrites() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->completedWrites();
    return n;
}

std::uint64_t
DiskArray::dataBytesRead() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->bytesRead();
    return n;
}

std::uint64_t
DiskArray::dataBytesWritten() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->bytesWritten();
    return n;
}

std::uint64_t
DiskArray::logWrites() const
{
    std::uint64_t n = 0;
    for (const auto &d : logDisks_)
        n += d->completedWrites();
    return n;
}

std::uint64_t
DiskArray::logBytesWritten() const
{
    std::uint64_t n = 0;
    for (const auto &d : logDisks_)
        n += d->bytesWritten();
    return n;
}

double
DiskArray::avgDataUtilization(Tick window) const
{
    if (dataDisks_.empty() || window == 0)
        return 0.0;
    double sum = 0.0;
    for (const auto &d : dataDisks_)
        sum += static_cast<double>(d->busyTicks());
    return sum / (static_cast<double>(window) * dataDisks_.size());
}

double
DiskArray::avgReadLatencyMs() const
{
    double sum = 0.0;
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_) {
        sum += d->latency().mean() * d->latency().count();
        n += d->latency().count();
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

std::uint64_t
DiskArray::queueAllocations() const
{
    std::uint64_t n = 0;
    for (const auto &d : dataDisks_)
        n += d->queueAllocations();
    for (const auto &d : logDisks_)
        n += d->queueAllocations();
    return n;
}

void
DiskArray::resetStats()
{
    for (auto &d : dataDisks_)
        d->resetStats();
    for (auto &d : logDisks_)
        d->resetStats();
}

} // namespace odbsim::os
