#include "db/database.hh"

#include <algorithm>
#include <vector>

#include "sim/logging.hh"

namespace odbsim::db
{

Database::Database(os::System &sys, const DatabaseConfig &cfg)
    : sys_(sys), cfg_(cfg), schema_(cfg.schema),
      bufcache_(resolveFrames(cfg, schema_)), log_(sys, cfg_.costs),
      dbwr_(sys, cfg_.costs, bufcache_, cfg.dbwr)
{
}

std::uint64_t
Database::resolveFrames(const DatabaseConfig &cfg, const Schema &schema)
{
    // The buffer cache keeps block ids in 32 bits; check the schema
    // fits once here, before the cache is built, so the replay path
    // needs no per-lookup check.
    const std::uint64_t max_blocks = BufferCache::maxBlock + 1;
    if (schema.totalBlocks() > max_blocks) {
        const double max_warehouses =
            static_cast<double>(max_blocks) * schema.warehouses() /
            static_cast<double>(schema.totalBlocks());
        odbsim_fatal("a W=", schema.warehouses(), " schema spans ",
                     schema.totalBlocks(), " blocks, past the buffer "
                     "cache's 32-bit block ids (", max_blocks,
                     " blocks, about ",
                     static_cast<std::uint64_t>(max_warehouses),
                     " warehouses of this geometry)");
    }
    if (cfg.sgaFrames)
        return cfg.sgaFrames;
    const double frames = cfg.cacheWarehouseEquivalents *
                          schema.readableBlocksPerWarehouse();
    return static_cast<std::uint64_t>(frames);
}

void
Database::start()
{
    log_.start();
    dbwr_.start();
}

void
Database::instantWarm(const std::vector<std::uint32_t> &active_warehouses,
                      unsigned)
{
    // Collect hottest-first, then prefill coldest-first so the LRU
    // order in the cache matches hotness (hottest prefilled last ends
    // up at MRU). Blocks already resident count against the budget
    // and are skipped by the prefill. A bitmap over the block-id
    // space dedupes the enumeration, so the whole warm-up makes a
    // constant number of heap allocations whatever the frame count.
    // Block ids fit 32 bits (checked at construction), which halves
    // the hot list.
    const std::uint64_t total = schema_.totalBlocks();
    const std::uint64_t budget =
        bufcache_.numFrames() - bufcache_.residentBlocks();
    std::vector<std::uint32_t> hot;
    hot.reserve(std::min(budget, total));
    std::vector<std::uint64_t> seen((total + 63) / 64);
    schema_.enumerateWarm(
        [&](BlockId b) {
            odbsim_assert(b < total, "warm block ", b,
                          " outside the schema's ", total, " blocks");
            std::uint64_t &word = seen[b >> 6];
            const std::uint64_t bit = std::uint64_t{1} << (b & 63);
            if (!(word & bit)) {
                word |= bit;
                hot.push_back(static_cast<std::uint32_t>(b));
            }
            return hot.size() < budget;
        },
        active_warehouses.empty() ? nullptr : &active_warehouses);
    const auto dirty_cut =
        static_cast<std::uint64_t>(cfg_.warmDirtyFraction * 1000.0);
    bufcache_.prefillColdestFirst(hot, [dirty_cut](BlockId b) {
        return Schema::mix(b, 0xd1d1, 0) % 1000 < dirty_cut;
    });
    bufcache_.resetStats();
}

void
Database::resetStats()
{
    bufcache_.resetStats();
    locks_.resetStats();
    log_.resetStats();
    dbwr_.resetStats();
}

} // namespace odbsim::db
