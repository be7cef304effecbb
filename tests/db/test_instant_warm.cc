/**
 * @file
 * Differential test for Database::instantWarm: the bitmap-deduped,
 * prefetched warm-up must leave the buffer cache exactly as the
 * original node-based algorithm did — the same resident blocks in the
 * same frames, the same dirty bits and the same LRU order. The
 * original algorithm lives here, and only here, as the oracle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "../support/mini_odb.hh"
#include "db/database.hh"
#include "os/system.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::db;

/**
 * The original warm-up: dedupe the hottest-first enumeration through
 * an unordered_set up to the free-frame budget, then prefill it
 * coldest-first with one find plus one insert per block.
 */
void
oracleWarm(Database &db, const std::vector<std::uint32_t> &active)
{
    BufferCache &bc = db.bufferCache();
    std::vector<BlockId> hot;
    std::unordered_set<BlockId> seen;
    const std::uint64_t budget = bc.numFrames() - bc.residentBlocks();
    db.schema().enumerateWarm(
        [&](BlockId b) {
            if (seen.insert(b).second)
                hot.push_back(b);
            return hot.size() < budget;
        },
        active.empty() ? nullptr : &active);
    const auto cut = static_cast<std::uint64_t>(
        db.config().warmDirtyFraction * 1000.0);
    for (auto it = hot.rbegin(); it != hot.rend(); ++it)
        bc.prefill(*it, Schema::mix(*it, 0xd1d1, 0) % 1000 < cut);
    bc.resetStats();
}

/** Everything observable about a warmed cache. */
struct CacheImage
{
    std::uint64_t resident = 0;
    /** Frame of every schema block, or ~0 when not resident. */
    std::vector<std::uint64_t> frameOf;
    /** Dirty bit of every frame, in frame order. */
    std::vector<bool> dirty;
    /** Resident blocks LRU-first, with their dirty bits. */
    std::vector<BlockId> lruOrder;
    std::vector<bool> lruDirty;
};

/**
 * Snapshot @p db's cache, then drain its LRU order by allocating one
 * out-of-range block per frame: the free frames go first, then every
 * allocation evicts the least recently used warmed block (the new
 * blocks are I/O-pending, so they are never victims).
 */
CacheImage
drain(Database &db)
{
    BufferCache &bc = db.bufferCache();
    const std::uint64_t total = db.schema().totalBlocks();
    CacheImage img;
    img.resident = bc.residentBlocks();
    for (BlockId b = 0; b < total; ++b) {
        const BufferLookup l = bc.peek(b);
        img.frameOf.push_back(l.hit ? l.frame : ~std::uint64_t{0});
    }
    for (std::uint64_t f = 0; f < bc.numFrames(); ++f)
        img.dirty.push_back(bc.isDirty(f));
    EXPECT_EQ(bc.gets(), 0u);
    EXPECT_EQ(bc.misses(), 0u);
    for (std::uint64_t i = 0; i < bc.numFrames(); ++i) {
        const BufferVictim v = bc.allocate(total + i);
        if (v.hadBlock) {
            img.lruOrder.push_back(v.evictedBlock);
            img.lruDirty.push_back(v.wasDirty);
        }
    }
    EXPECT_EQ(img.lruOrder.size(), img.resident);
    return img;
}

struct WarmCase
{
    unsigned warehouses;
    std::uint64_t frames;
    std::vector<std::uint32_t> active;
    /** Blocks prefilled (clean) before the warm-up. */
    std::vector<BlockId> preResident;
};

/**
 * Warm two identical databases, one per algorithm; compare.
 * @return The resident block count after the warm-up.
 */
std::uint64_t
expectMatchesOracle(const WarmCase &c)
{
    DatabaseConfig cfg = test::miniDbConfig(c.warehouses);
    cfg.sgaFrames = c.frames;
    os::System sys_new(test::miniSystemConfig());
    os::System sys_old(test::miniSystemConfig());
    Database fresh(sys_new, cfg);
    Database oracle(sys_old, cfg);
    for (const BlockId b : c.preResident) {
        fresh.bufferCache().prefill(b);
        oracle.bufferCache().prefill(b);
    }

    fresh.instantWarm(c.active);
    oracleWarm(oracle, c.active);

    const CacheImage a = drain(fresh);
    const CacheImage b = drain(oracle);
    EXPECT_GT(b.resident, c.preResident.size()) << "warm-up filled nothing";
    EXPECT_EQ(a.resident, b.resident);
    EXPECT_EQ(a.frameOf, b.frameOf);
    EXPECT_EQ(a.dirty, b.dirty);
    EXPECT_EQ(a.lruOrder, b.lruOrder);
    EXPECT_EQ(a.lruDirty, b.lruDirty);
    return a.resident;
}

TEST(InstantWarm, MatchesUnorderedSetOracle)
{
    const Schema schema(test::miniDbConfig(2).schema);
    const std::uint64_t total = schema.totalBlocks();
    std::vector<BlockId> order; // The whole warm order, deduped.
    std::unordered_set<BlockId> seen;
    schema.enumerateWarm([&](BlockId b) {
        if (seen.insert(b).second)
            order.push_back(b);
        return true;
    });
    ASSERT_GT(order.size(), 900u);

    {
        SCOPED_TRACE("schema exhausted before the budget");
        EXPECT_EQ(expectMatchesOracle({2, 4096, {}, {}}), order.size());
    }
    {
        SCOPED_TRACE("budget-limited: fewer frames than the warm set");
        EXPECT_EQ(expectMatchesOracle({2, 600, {}, {}}), 600u);
    }
    {
        SCOPED_TRACE("active-warehouse subset");
        EXPECT_EQ(expectMatchesOracle({4, 800, {3, 1, 3}, {}}), 800u);
        EXPECT_LT(expectMatchesOracle({4, 4096, {3, 1, 3}, {}}),
                  expectMatchesOracle({4, 4096, {}, {}}));
    }
    {
        SCOPED_TRACE("blocks resident before the warm-up");
        // The first four sit inside the budget's share of the warm
        // order, the next one beyond it; the last is the final undo
        // block, which the warm enumeration never emits. The four
        // count against the budget and are skipped, so four frames
        // stay free.
        ASSERT_EQ(seen.count(total - 1), 0u);
        EXPECT_EQ(expectMatchesOracle({2, 700, {}, {order[0], order[1],
                                                  order[300], order[650],
                                                  order[900],
                                                  total - 1}}),
                  700u - 4);
    }
}

} // namespace
