/**
 * @file
 * A miniature ODB deployment for integration-style tests: a small
 * machine, a 2-4 warehouse database with reduced cardinalities, and a
 * handful of clients. Runs a full warm + measure cycle in tens of
 * milliseconds of wall time.
 */

#ifndef ODBSIM_TESTS_SUPPORT_MINI_ODB_HH
#define ODBSIM_TESTS_SUPPORT_MINI_ODB_HH

#include <memory>

#include "db/database.hh"
#include "odb/workload.hh"
#include "os/system.hh"

namespace odbsim::test
{

inline os::SystemConfig
miniSystemConfig(unsigned cpus = 2)
{
    os::SystemConfig cfg;
    cfg.numCpus = cpus;
    cfg.core.samplePeriod = 16;
    cfg.disks.dataDisks = 4;
    cfg.disks.logDisks = 1;
    cfg.seed = 99;
    return cfg;
}

inline db::DatabaseConfig
miniDbConfig(unsigned warehouses = 2)
{
    db::DatabaseConfig cfg;
    cfg.schema.warehouses = warehouses;
    cfg.schema.customersPerDistrict = 300;
    cfg.schema.itemCount = 2000;
    cfg.schema.stockPerWarehouse = 2000;
    cfg.schema.initialOrdersPerDistrict = 100;
    cfg.schema.ordersPerDistrictCap = 400;
    cfg.schema.olPerDistrictCap = 4500;
    cfg.schema.newOrderCap = 200;
    cfg.schema.historyCap = 1800;
    cfg.schema.undoBlocks = 256;
    cfg.sgaFrames = 4096;
    return cfg;
}

/** Fully wired mini deployment. */
struct MiniOdb
{
    os::System sys;
    db::Database db;
    odb::OdbWorkload workload;

    explicit MiniOdb(unsigned cpus = 2, unsigned warehouses = 2,
                     unsigned clients = 4)
        : MiniOdb(miniSystemConfig(cpus), miniDbConfig(warehouses),
                  clients)
    {}

    /** Full-control variant: bring your own system and database
     *  configs (checkpoint ages, disk shapes). */
    MiniOdb(const os::SystemConfig &syscfg,
            const db::DatabaseConfig &dbcfg, unsigned clients)
        : sys(syscfg), db(sys, dbcfg), workload(db, [clients] {
              odb::WorkloadConfig w;
              w.clients = clients;
              w.seed = 7;
              return w;
          }())
    {
        db.start();
        workload.start();
        db.instantWarm();
    }

    /** Warm up, reset, and measure for @p measure ticks. */
    void
    measure(Tick warmup = 50 * tickPerMs, Tick measure = 200 * tickPerMs)
    {
        sys.runFor(warmup);
        sys.beginMeasurement();
        workload.resetStats();
        db.resetStats();
        sys.runFor(measure);
    }
};

} // namespace odbsim::test

#endif // ODBSIM_TESTS_SUPPORT_MINI_ODB_HH
