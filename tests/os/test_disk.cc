/**
 * @file
 * Tests for the disk and disk-array models: queueing, service times,
 * routing, statistics and config validation.
 */

#include <gtest/gtest.h>

#include <limits>

#include "os/disk.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::os;

DiskConfig
fastCfg()
{
    DiskConfig c;
    c.randomPositionMs = 4.0;
    c.minPositionMs = 1.0;
    c.sequentialMs = 0.3;
    c.transferMbPerSec = 40.0;
    return c;
}

TEST(Disk, CompletesARead)
{
    EventQueue eq;
    Disk d("d0", fastCfg(), eq, 1);
    bool done = false;
    d.submit(DiskRequest{8192, false, false, [&] { done = true; }});
    EXPECT_TRUE(d.busy());
    eq.runAll();
    EXPECT_TRUE(done);
    EXPECT_FALSE(d.busy());
    EXPECT_EQ(d.completedReads(), 1u);
    EXPECT_EQ(d.bytesRead(), 8192u);
}

TEST(Disk, RandomServiceRespectsMinimum)
{
    EventQueue eq;
    Disk d("d0", fastCfg(), eq, 2);
    Tick start = eq.curTick();
    Tick done_at = 0;
    d.submit(DiskRequest{8192, false, false,
                         [&] { done_at = eq.curTick(); }});
    eq.runAll();
    // At least min positioning plus the transfer time.
    EXPECT_GE(done_at - start, ticksFromMs(1.0));
}

TEST(Disk, SequentialFasterThanRandom)
{
    EventQueue eq;
    Disk d("d0", fastCfg(), eq, 3);
    RunningStat seq_ms, rnd_ms;
    for (int i = 0; i < 50; ++i) {
        Tick t0 = eq.curTick();
        d.submit(DiskRequest{8192, true, true,
                             [&, t0] {
                                 seq_ms.add(secondsFromTicks(
                                                eq.curTick() - t0) *
                                            1e3);
                             }});
        eq.runAll();
        t0 = eq.curTick();
        d.submit(DiskRequest{8192, false, false,
                             [&, t0] {
                                 rnd_ms.add(secondsFromTicks(
                                                eq.curTick() - t0) *
                                            1e3);
                             }});
        eq.runAll();
    }
    EXPECT_LT(seq_ms.mean() * 2.0, rnd_ms.mean());
}

TEST(Disk, FifoQueueing)
{
    EventQueue eq;
    Disk d("d0", fastCfg(), eq, 4);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        d.submit(DiskRequest{8192, false, false,
                             [&order, i] { order.push_back(i); }});
    }
    EXPECT_EQ(d.queueDepth(), 3u); // One in service.
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Disk, LatencyIncludesQueueing)
{
    EventQueue eq;
    Disk d("d0", fastCfg(), eq, 5);
    for (int i = 0; i < 8; ++i)
        d.submit(DiskRequest{8192, false, false, nullptr});
    eq.runAll();
    // The last request waited behind seven others.
    EXPECT_GT(d.latency().max(), 4.0 * d.latency().min());
}

TEST(Disk, TracksBusyTime)
{
    EventQueue eq;
    Disk d("d0", fastCfg(), eq, 6);
    d.submit(DiskRequest{8192, false, false, nullptr});
    eq.runAll();
    EXPECT_GT(d.busyTicks(), 0u);
    EXPECT_LE(d.busyTicks(), eq.curTick());
}

TEST(Disk, ResetStats)
{
    EventQueue eq;
    Disk d("d0", fastCfg(), eq, 7);
    d.submit(DiskRequest{8192, true, false, nullptr});
    eq.runAll();
    d.resetStats();
    EXPECT_EQ(d.completedWrites(), 0u);
    EXPECT_EQ(d.bytesWritten(), 0u);
    EXPECT_EQ(d.busyTicks(), 0u);
}

TEST(DiskArray, RoutesBlocksAcrossDataDisks)
{
    EventQueue eq;
    DiskArrayConfig cfg;
    cfg.dataDisks = 4;
    cfg.logDisks = 1;
    cfg.disk = fastCfg();
    DiskArray arr(cfg, eq, 11);
    for (std::uint64_t b = 0; b < 64; ++b)
        arr.readBlock(b, 8192, nullptr);
    eq.runAll();
    EXPECT_EQ(arr.totalReads(), 64u);
    // Multiplicative-hash striping should touch every disk.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_GT(arr.dataDisk(i).completedReads(), 0u);
}

TEST(DiskArray, SameBlockSameDisk)
{
    EventQueue eq;
    DiskArrayConfig cfg;
    cfg.dataDisks = 4;
    cfg.logDisks = 1;
    cfg.disk = fastCfg();
    DiskArray arr(cfg, eq, 12);
    for (int i = 0; i < 10; ++i)
        arr.readBlock(777, 8192, nullptr);
    eq.runAll();
    unsigned disks_used = 0;
    for (unsigned i = 0; i < 4; ++i)
        disks_used += arr.dataDisk(i).completedReads() > 0;
    EXPECT_EQ(disks_used, 1u);
}

TEST(DiskArray, LogWritesGoToLogDisks)
{
    EventQueue eq;
    DiskArrayConfig cfg;
    cfg.dataDisks = 2;
    cfg.logDisks = 2;
    cfg.disk = fastCfg();
    DiskArray arr(cfg, eq, 13);
    for (int i = 0; i < 6; ++i)
        arr.writeLog(4096, nullptr);
    eq.runAll();
    EXPECT_EQ(arr.logWrites(), 6u);
    EXPECT_EQ(arr.dataWrites(), 0u);
    EXPECT_EQ(arr.logBytesWritten(), 6u * 4096u);
}

TEST(DiskArray, SplitsDataAndLogStatistics)
{
    EventQueue eq;
    DiskArrayConfig cfg;
    cfg.dataDisks = 2;
    cfg.logDisks = 1;
    cfg.disk = fastCfg();
    DiskArray arr(cfg, eq, 14);
    arr.readBlock(1, 8192, nullptr);
    arr.writeBlock(2, 8192, nullptr);
    arr.writeLog(1024, nullptr);
    eq.runAll();
    EXPECT_EQ(arr.dataBytesRead(), 8192u);
    EXPECT_EQ(arr.dataBytesWritten(), 8192u);
    EXPECT_EQ(arr.logBytesWritten(), 1024u);
    EXPECT_EQ(arr.totalWrites(), 2u);
}

TEST(DiskArray, QueueAllocationsStayFlatUnderChurn)
{
    EventQueue eq;
    DiskArrayConfig cfg;
    cfg.dataDisks = 2;
    cfg.logDisks = 1;
    cfg.disk = fastCfg();
    DiskArray arr(cfg, eq, 17);
    // Reach the high-water queue depth once.
    for (std::uint64_t b = 0; b < 16; ++b)
        arr.readBlock(b, 8192, nullptr);
    for (int i = 0; i < 4; ++i)
        arr.writeLog(4096, nullptr);
    eq.runAll();
    const std::uint64_t allocs = arr.queueAllocations();
    EXPECT_GT(allocs, 0u);

    // Steady-state churn below the mark recycles pooled nodes.
    for (int round = 0; round < 50; ++round) {
        for (std::uint64_t b = 0; b < 16; ++b)
            arr.readBlock(b, 8192, nullptr);
        for (int i = 0; i < 4; ++i)
            arr.writeLog(4096, nullptr);
        eq.runAll();
    }
    EXPECT_EQ(arr.queueAllocations(), allocs);
}

TEST(DiskDeathTest, RejectsNegativeLatency)
{
    EventQueue eq;
    DiskConfig cfg = fastCfg();
    cfg.randomPositionMs = -1.0;
    EXPECT_EXIT({ Disk d("bad", cfg, eq, 1); },
                ::testing::ExitedWithCode(1), "randomPositionMs");
}

TEST(DiskDeathTest, RejectsNanLatency)
{
    EventQueue eq;
    DiskConfig cfg = fastCfg();
    cfg.sequentialMs = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT({ Disk d("bad", cfg, eq, 1); },
                ::testing::ExitedWithCode(1), "sequentialMs");
}

TEST(DiskDeathTest, RejectsNonPositiveTransferRate)
{
    EventQueue eq;
    DiskConfig cfg = fastCfg();
    cfg.transferMbPerSec = 0.0;
    EXPECT_EXIT({ Disk d("bad", cfg, eq, 1); },
                ::testing::ExitedWithCode(1), "transferMbPerSec");
}

TEST(DiskArray, UtilizationOverWindow)
{
    EventQueue eq;
    DiskArrayConfig cfg;
    cfg.dataDisks = 2;
    cfg.logDisks = 1;
    cfg.disk = fastCfg();
    DiskArray arr(cfg, eq, 15);
    arr.readBlock(1, 8192, nullptr);
    eq.runAll();
    const double u = arr.avgDataUtilization(eq.curTick());
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
    EXPECT_GT(arr.avgReadLatencyMs(), 0.0);
}

} // namespace
