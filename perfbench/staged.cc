#include "staged.hh"

#include <bit>
#include <memory>
#include <sstream>
#include <type_traits>

#include "core/client_table.hh"
#include "core/machine.hh"
#include "db/database.hh"
#include "odb/workload.hh"
#include "os/system.hh"
#include "sim/logging.hh"

namespace odbsim::perfbench
{

core::OltpConfiguration
Point::config() const
{
    core::OltpConfiguration cfg;
    cfg.machine = machine;
    cfg.warehouses = warehouses;
    cfg.processors = processors;
    return cfg;
}

double
Span::count(const std::string &key) const
{
    for (const auto &[k, v] : counts) {
        if (k == key)
            return v;
    }
    return 0.0;
}

const Span &
PointTrace::span(const std::string &name) const
{
    for (const Span &s : spans) {
        if (s.name == name)
            return s;
    }
    odbsim_fatal("traced point has no span ", name);
}

namespace
{

/** The objects one grid point owns, destroyed in reverse order. */
struct Stack
{
    core::MachinePreset preset;
    std::unique_ptr<os::System> sys;
    std::unique_ptr<db::Database> database;
    std::unique_ptr<odb::OdbWorkload> workload;
};

/**
 * The set-up half of ExperimentRunner::runWithPreset (and the preset
 * step of ExperimentRunner::run), one call per stage.
 * @param stage Invoked as stage(name, fn); must call fn() once.
 */
template <class Stage>
Stack
setUp(const Point &p, const core::RunKnobs &knobs, Stage &&stage)
{
    Stack s;
    stage("os.system_build", [&] {
        s.preset = core::makeMachine(p.machine, p.processors,
                                     knobs.samplePeriod, knobs.seed);
        os::SystemConfig syscfg = s.preset.sys;
        syscfg.faults = knobs.faults;
        syscfg.eventQueue = knobs.eventQueue;
        syscfg.desThreads = knobs.desThreads;
        s.sys = std::make_unique<os::System>(syscfg);
    });
    stage("db.database_build", [&] {
        db::DatabaseConfig dbcfg;
        dbcfg.schema.warehouses = p.warehouses;
        dbcfg.schema.seed = knobs.seed;
        dbcfg.cacheWarehouseEquivalents =
            s.preset.cacheWarehouseEquivalents;
        dbcfg.shards = knobs.dbShards;
        s.database = std::make_unique<db::Database>(*s.sys, dbcfg);
        s.database->start();
    });
    stage("odb.workload_start", [&] {
        odb::WorkloadConfig wcfg;
        wcfg.clients =
            core::paperClients(p.warehouses, s.preset.sys.numCpus);
        wcfg.seed = knobs.seed * 7919 + p.warehouses;
        s.workload = std::make_unique<odb::OdbWorkload>(*s.database, wcfg);
        s.workload->start();
    });
    stage("db.instant_warm", [&] {
        if (knobs.instantWarm)
            s.database->instantWarm({}, knobs.replayThreads);
    });
    return s;
}

/** Work counters of the simulator's host-side layers at one instant. */
struct LayerReading
{
    std::uint64_t events = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l3Accesses = 0;
    std::uint64_t l3Misses = 0;
    std::uint64_t l3Writebacks = 0;
    std::uint64_t dirInvalidations = 0;
    std::uint64_t dirCoherenceMisses = 0;
};

LayerReading
readLayers(os::System &sys)
{
    LayerReading r;
    r.events = sys.eq().eventsFired();
    const mem::MemorySystem &m = sys.memsys();
    for (unsigned i = 0; i < m.numCpus(); ++i) {
        const mem::CpuCacheHierarchy &h = m.cpu(i);
        r.l2Accesses += h.l2().accesses();
        r.l2Misses += h.l2().misses();
        r.l3Accesses += h.l3().accesses();
        r.l3Misses += h.l3().misses();
        r.l3Writebacks += h.l3().writebacks();
    }
    r.dirInvalidations = m.directory().invalidationsSent();
    r.dirCoherenceMisses = m.directory().coherenceMisses();
    return r;
}

/** Attach the layer-counter deltas between @p a and @p b to @p s. */
void
addDeltas(Span &s, const LayerReading &a, const LayerReading &b)
{
    auto d = [](std::uint64_t x, std::uint64_t y) {
        return static_cast<double>(y - x);
    };
    s.counts = {
        {"sim.events", d(a.events, b.events)},
        {"mem.l2_accesses", d(a.l2Accesses, b.l2Accesses)},
        {"mem.l2_misses", d(a.l2Misses, b.l2Misses)},
        {"mem.l3_accesses", d(a.l3Accesses, b.l3Accesses)},
        {"mem.l3_misses", d(a.l3Misses, b.l3Misses)},
        {"mem.l3_writebacks", d(a.l3Writebacks, b.l3Writebacks)},
        {"mem.dir_invalidations",
         d(a.dirInvalidations, b.dirInvalidations)},
        {"mem.dir_coherence_misses",
         d(a.dirCoherenceMisses, b.dirCoherenceMisses)},
    };
}

} // namespace

double
timeSetUp(const Point &p, const core::RunKnobs &knobs)
{
    const auto t0 = Clock::now();
    Stack s = setUp(p, knobs, [](const char *, auto &&fn) { fn(); });
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

PointTrace
tracePoint(const Point &p, unsigned point_id, const core::RunKnobs &knobs,
           Clock::time_point origin)
{
    PointTrace t;
    t.pointId = point_id;
    t.point = p;
    auto now = [origin] {
        return std::chrono::duration<double>(Clock::now() - origin)
            .count();
    };
    // Spans are appended as they close, so the root goes first and
    // is closed last.
    t.spans.push_back(Span{"core.point", -1, now(), 0.0, {}});
    auto stage = [&](const char *name, auto &&fn) -> Span & {
        Span s{name, 0, now(), 0.0, {}};
        fn();
        s.end = now();
        t.spans.push_back(std::move(s));
        return t.spans.back();
    };

    Stack st = setUp(p, knobs, stage);
    os::System &sys = *st.sys;
    db::Database &database = *st.database;
    odb::OdbWorkload &workload = *st.workload;

    const Tick extra_warm = ticksFromMs(
        static_cast<double>(p.warehouses) * knobs.warmupPerWarehouseMs);
    LayerReading before = readLayers(sys);
    Span &warm = stage("os.run_warmup",
                       [&] { sys.runFor(knobs.warmup + extra_warm); });
    addDeltas(warm, before, readLayers(sys));

    stage("os.begin_measurement", [&] {
        sys.beginMeasurement();
        workload.resetStats();
        database.resetStats();
    });

    before = readLayers(sys);
    Span &measure =
        stage("os.run_measure", [&] { sys.runFor(knobs.measure); });
    addDeltas(measure, before, readLayers(sys));
    const std::size_t measure_idx = t.spans.size() - 1;

    stage("perfmon.read", [&] {
        t.counters = perfmon::SystemCounters::read(sys);
        t.counters.busUtilization =
            sys.memsys().bus().utilizationStat().mean();
        t.counters.ioqCycles = sys.memsys().bus().ioqStat().mean();
    });

    // Measurement-window outcomes: every accessor below was reset by
    // the begin_measurement stage, so its value is the delta over the
    // measure span.
    {
        const auto &c = t.counters;
        const auto &disks = sys.disks();
        const auto &bc = database.bufferCache();
        const auto &bus = sys.memsys().bus();
        Span &m = t.spans[measure_idx];
        const std::vector<std::pair<std::string, double>> window = {
            {"cpu.instr_user", c.instructions.user},
            {"cpu.instr_os", c.instructions.os},
            {"cpu.cycles", c.cycles.total()},
            {"cpu.branch_mispredicts", c.branchMispredicts.total()},
            {"cpu.tlb_misses", c.tlbMisses.total()},
            {"cpu.tc_misses", c.tcMisses.total()},
            {"mem.dir_tracked_lines",
             static_cast<double>(sys.memsys().directory().trackedLines())},
            {"mem.bus_util", c.busUtilization},
            {"mem.ioq_wait_cycles",
             c.ioqCycles - bus.config().baseTransactionCycles},
            {"os.disk_reads", static_cast<double>(disks.dataReads())},
            {"os.disk_writes", static_cast<double>(disks.dataWrites())},
            {"os.log_writes", static_cast<double>(disks.logWrites())},
            {"os.disk_read_ms", disks.avgReadLatencyMs()},
            {"os.disk_util",
             disks.avgDataUtilization(sys.measurementWindow())},
            {"os.ctx_switches",
             static_cast<double>(sys.sched().contextSwitches())},
            {"db.buffer_gets", static_cast<double>(bc.gets())},
            {"db.buffer_misses", static_cast<double>(bc.misses())},
            {"db.lock_conflicts",
             static_cast<double>(database.locks().conflicts())},
            {"db.redo_flushes",
             static_cast<double>(database.log().flushes())},
            {"db.redo_bytes",
             static_cast<double>(database.log().bytesFlushed())},
            {"db.dbwr_blocks_written",
             static_cast<double>(database.dbwr().blocksWritten())},
            {"odb.commits", static_cast<double>(workload.committed())},
            {"odb.txn_p95_ms",
             workload.latencyHistogramMs().quantile(0.95)},
            {"sim.pending_events", static_cast<double>(sys.eq().size())},
        };
        m.counts.insert(m.counts.end(), window.begin(), window.end());
    }

    t.txnsCommitted = workload.committed();
    t.eventsFired = sys.eq().eventsFired();
    t.bufferHitRatio = database.bufferCache().hitRatio();
    t.p95LatencyMs = workload.latencyHistogramMs().quantile(0.95);
    t.spans.front().end = now();
    return t;
}

std::vector<std::string>
diffTrace(const PointTrace &t, const core::RunResult &r)
{
    std::vector<std::string> out;
    auto cmp = [&out](const char *field, auto traced, auto untraced) {
        bool same = false;
        if constexpr (std::is_same_v<decltype(traced), double>)
            same = std::bit_cast<std::uint64_t>(traced) ==
                   std::bit_cast<std::uint64_t>(untraced);
        else
            same = traced == untraced;
        if (!same) {
            std::ostringstream os;
            os.precision(17);
            os << field << ": traced " << traced << " untraced "
               << untraced;
            out.push_back(os.str());
        }
    };
    cmp("txnsCommitted", t.txnsCommitted, r.txnsCommitted);
    cmp("eventsFired", t.eventsFired, r.eventsFired);
    const perfmon::SystemCounters &a = t.counters;
    const perfmon::SystemCounters &b = r.counters;
    const std::pair<const char *, const perfmon::EventReading
                                      perfmon::SystemCounters::*>
        readings[] = {
            {"instructions", &perfmon::SystemCounters::instructions},
            {"cycles", &perfmon::SystemCounters::cycles},
            {"branchMispredicts",
             &perfmon::SystemCounters::branchMispredicts},
            {"tlbMisses", &perfmon::SystemCounters::tlbMisses},
            {"tcMisses", &perfmon::SystemCounters::tcMisses},
            {"l2Misses", &perfmon::SystemCounters::l2Misses},
            {"l3Misses", &perfmon::SystemCounters::l3Misses},
            {"coherenceMisses",
             &perfmon::SystemCounters::coherenceMisses},
        };
    for (const auto &[name, field] : readings) {
        cmp((std::string(name) + ".user").c_str(), (a.*field).user,
            (b.*field).user);
        cmp((std::string(name) + ".os").c_str(), (a.*field).os,
            (b.*field).os);
    }
    cmp("busUtilization", a.busUtilization, b.busUtilization);
    cmp("ioqCycles", a.ioqCycles, b.ioqCycles);
    cmp("bufferHitRatio", t.bufferHitRatio, r.bufferHitRatio);
    cmp("p95LatencyMs", t.p95LatencyMs, r.p95LatencyMs);
    return out;
}

} // namespace odbsim::perfbench
