/**
 * @file
 * Construction-time checks of the Database facade: the buffer cache
 * keeps block ids in 32 bits, so a schema whose volume does not fit
 * is rejected when the database is built, naming W and the limit.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "../support/mini_odb.hh"
#include "db/database.hh"
#include "os/system.hh"

namespace
{

using namespace odbsim;
using namespace odbsim::db;

/** The mini geometry with its undo ring stretched so the volume
 *  spans exactly @p total blocks. */
DatabaseConfig
volumeOf(std::uint64_t total)
{
    DatabaseConfig cfg = test::miniDbConfig(1);
    cfg.schema.undoBlocks = 1;
    const std::uint64_t rest = Schema(cfg.schema).totalBlocks() - 1;
    cfg.schema.undoBlocks = static_cast<std::uint32_t>(total - rest);
    return cfg;
}

TEST(Database, VolumeOfExactlyThirtyTwoBitBlockIdsBuilds)
{
    const DatabaseConfig cfg = volumeOf(BufferCache::maxBlock + 1);
    os::System sys(test::miniSystemConfig(1));
    Database database(sys, cfg);
    EXPECT_EQ(database.schema().totalBlocks() - 1, BufferCache::maxBlock);
}

TEST(DatabaseDeathTest, VolumeOneBlockPastThirtyTwoBitsIsRejected)
{
    const DatabaseConfig cfg = volumeOf(BufferCache::maxBlock + 2);
    EXPECT_DEATH(
        {
            os::System sys(test::miniSystemConfig(1));
            Database database(sys, cfg);
        },
        "W=1 schema spans 4294967296 blocks");
}

TEST(DatabaseDeathTest, MessageNamesWarehouseLimitOfPaperGeometry)
{
    // The paper geometry spends about 10.8 K blocks per warehouse, so
    // the 32-bit ids run out just short of 400,000 warehouses.
    DatabaseConfig cfg;
    cfg.schema.warehouses = 400'000;
    cfg.sgaFrames = 64;
    EXPECT_DEATH(
        {
            os::System sys(test::miniSystemConfig(1));
            Database database(sys, cfg);
        },
        "W=400000 schema spans .*32-bit.*about 39[0-9][0-9][0-9][0-9] "
        "warehouses");
}

} // namespace
