/**
 * @file
 * Tests for the implicit B-tree: geometry, path determinism, extent
 * layout, hot-prefix property of internal levels.
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "db/btree.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::db;

/** Capacity, keys per leaf, fanout. */
using Geometry = std::tuple<std::uint64_t, std::uint32_t, std::uint32_t>;

/** A single leaf, a leaf boundary, the schema's index shapes up to
 *  800 warehouses' customers, and an odd small fanout. */
const Geometry geometries[] = {
    {1, 300, 250},       {299, 300, 250},      {30000, 300, 250},
    {1000000, 400, 250}, {24000000, 300, 250}, {12345, 70, 30},
};

TEST(ImplicitBTree, SingleLeafTree)
{
    ImplicitBTree t(100, 50, 300, 250);
    EXPECT_EQ(t.height(), 1u);
    EXPECT_EQ(t.blocksUsed(), 1u);
    const IndexPath p = t.lookup(49);
    EXPECT_EQ(p.height, 1u);
    EXPECT_EQ(p.node[0], 100u);
    EXPECT_EQ(p.leaf(), 100u);
    EXPECT_EQ(p.leafSlot, 49u);
}

TEST(ImplicitBTree, TwoLevelTree)
{
    // 1000 keys, 100 per leaf -> 10 leaves -> 1 root.
    ImplicitBTree t(0, 1000, 100, 250);
    EXPECT_EQ(t.height(), 2u);
    EXPECT_EQ(t.blocksUsed(), 11u);
    const IndexPath p = t.lookup(550);
    EXPECT_EQ(p.height, 2u);
    EXPECT_EQ(p.node[0], 0u);       // Root first (extent prefix).
    EXPECT_EQ(p.node[1], 1u + 5u);  // Sixth leaf.
    EXPECT_EQ(p.leafSlot, 50u);
}

TEST(ImplicitBTree, ThreeLevelTree)
{
    // 100000 keys, 100/leaf -> 1000 leaves, fanout 50 -> 20 -> 1.
    ImplicitBTree t(0, 100000, 100, 50);
    EXPECT_EQ(t.height(), 3u);
    EXPECT_EQ(t.levelNodes(0), 1000u);
    EXPECT_EQ(t.levelNodes(1), 20u);
    EXPECT_EQ(t.levelNodes(2), 1u);
    EXPECT_EQ(t.blocksUsed(), 1021u);
    // Root at extent start; level 1 follows; leaves last.
    EXPECT_EQ(t.levelBase(2), 0u);
    EXPECT_EQ(t.levelBase(1), 1u);
    EXPECT_EQ(t.levelBase(0), 21u);
}

TEST(ImplicitBTree, PathIsDeterministic)
{
    ImplicitBTree t(7, 100000, 100, 50);
    const IndexPath a = t.lookup(4242);
    const IndexPath b = t.lookup(4242);
    ASSERT_EQ(a.height, b.height);
    for (unsigned l = 0; l < a.height; ++l)
        EXPECT_EQ(a.node[l], b.node[l]);
    EXPECT_EQ(a.leafSlot, b.leafSlot);
}

TEST(ImplicitBTree, AdjacentKeysShareLeaf)
{
    ImplicitBTree t(0, 100000, 100, 50);
    EXPECT_EQ(t.lookup(100).leaf(), t.lookup(199).leaf());
    EXPECT_NE(t.lookup(199).leaf(), t.lookup(200).leaf());
}

TEST(ImplicitBTree, PathNodesDescendLevels)
{
    ImplicitBTree t(0, 100000, 100, 50);
    const IndexPath p = t.lookup(99999);
    // node[0] is root, node[height-1] the leaf; each lies in its
    // level's extent.
    EXPECT_EQ(p.node[0], t.levelBase(2));
    EXPECT_GE(p.node[1], t.levelBase(1));
    EXPECT_LT(p.node[1], t.levelBase(1) + t.levelNodes(1));
    EXPECT_GE(p.node[2], t.levelBase(0));
    EXPECT_LT(p.node[2], t.levelBase(0) + t.levelNodes(0));
}

TEST(ImplicitBTree, OutOfRangeKeyPanics)
{
    ImplicitBTree t(0, 100, 10, 10);
    EXPECT_DEATH({ t.lookup(100); }, "out of range");
    EXPECT_DEATH({ t.leafOf(100); }, "out of range");
}

TEST(ImplicitBTree, LeafOfMatchesLookupLeaf)
{
    for (const auto &[cap, per_leaf, fanout] : geometries) {
        const ImplicitBTree t(1000, cap, per_leaf, fanout);
        for (std::uint64_t k = 0; k < cap; ++k) {
            ASSERT_EQ(t.leafOf(k), t.lookup(k).leaf())
                << "capacity " << cap << " key " << k;
        }
    }
}

/**
 * Property: across geometries, every key maps to a valid path whose
 * leaf extent covers all leaves, and sequential key ranges partition
 * cleanly into leaves.
 */
class BTreeGeomProperty : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(BTreeGeomProperty, AllKeysResolveAndCoverLeaves)
{
    const auto [cap, per_leaf, fanout] = GetParam();
    ImplicitBTree t(1000, cap, per_leaf, fanout);
    std::set<BlockId> leaves;
    const std::uint64_t step = std::max<std::uint64_t>(1, cap / 997);
    for (std::uint64_t k = 0; k < cap; k += step) {
        const IndexPath p = t.lookup(k);
        ASSERT_GE(p.height, 1u);
        ASSERT_LE(p.height, maxBtreeHeight);
        ASSERT_EQ(p.node[0], t.levelBase(t.height() - 1));
        ASSERT_LT(p.leafSlot, per_leaf);
        leaves.insert(p.leaf());
        // Every node lies inside the extent.
        for (unsigned l = 0; l < p.height; ++l) {
            ASSERT_GE(p.node[l], 1000u);
            ASSERT_LT(p.node[l], 1000u + t.blocksUsed());
        }
    }
    // Sampled keys must reach a large share of the leaf level.
    EXPECT_GE(leaves.size(),
              std::min<std::uint64_t>(t.levelNodes(0), 997) / 2);
}

TEST_P(BTreeGeomProperty, LevelNodeCountsShrinkByFanout)
{
    const auto [cap, per_leaf, fanout] = GetParam();
    ImplicitBTree t(0, cap, per_leaf, fanout);
    for (unsigned l = 1; l < t.height(); ++l) {
        const std::uint64_t expected =
            (t.levelNodes(l - 1) + fanout - 1) / fanout;
        EXPECT_EQ(t.levelNodes(l), expected);
    }
    EXPECT_EQ(t.levelNodes(t.height() - 1), 1u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, BTreeGeomProperty,
                         ::testing::ValuesIn(geometries));

} // namespace
