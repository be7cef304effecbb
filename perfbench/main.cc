/**
 * @file
 * odbsim's end-to-end benchmark program.
 *
 *   odbsim_perfbench --workload <name> [--seed N] [--seconds S]
 *                    [--trace 0|1] [--jobs J] [--golden-dir DIR]
 *                    [--rev TEXT]
 *
 * Untraced (--trace 0) it times the workload through the library's
 * public entry points (core::ScalingStudy::run,
 * core::ExperimentRunner::run) and prints the end-to-end metrics.
 * Traced (--trace 1) it replays every point stage by stage with a
 * span per stage (staged.hh), checks the replay against an untraced
 * run bit for bit, and prints the per-layer metrics. Either way the
 * last line of stdout is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * See README.md in this directory for the workloads and metrics.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/machine.hh"
#include "core/representative.hh"
#include "core/scaling_study.hh"
#include "core/study_io.hh"
#include "staged.hh"

#ifndef ODBSIM_PERFBENCH_BUILD_TYPE
#define ODBSIM_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef ODBSIM_PERFBENCH_COMPILER
#define ODBSIM_PERFBENCH_COMPILER "unknown"
#endif

namespace odbsim::perfbench
{
namespace
{

// ------------------------------------------------------------------
// Workloads

/** The paper's 36-point Xeon grid (Figs 2-18, Table 5). */
const std::vector<unsigned> kStudyWarehouses = {10,  25,  35,  50,
                                                75,  100, 150, 200,
                                                300, 400, 600, 800};
const std::vector<unsigned> kStudyProcessors = {1, 2, 4};

/** Paper Table 5 pivots (warehouses) for 1P/2P/4P. */
constexpr double kPaperCpiPivotW[] = {119.0, 142.0, 130.0};
constexpr double kPaperMpiPivotW[] = {102.0, 147.0, 144.0};

/** Where result and span files go, relative to the working directory. */
const std::string kOutDir = ".bench_out";

/** Seed the committed reference rows were generated at. */
constexpr std::uint64_t kDefaultSeed = 42;

struct Workload
{
    std::string name;
    /** Grid points the workload runs. */
    std::vector<Point> points;
    /** True: one timed unit is ScalingStudy::run over the grid;
     *  false: one ExperimentRunner::run of the single point. */
    bool study = false;
};

std::vector<Workload>
workloads()
{
    Workload study{"xeon_study", {}, true};
    for (unsigned p : kStudyProcessors)
        for (unsigned w : kStudyWarehouses)
            study.points.push_back({core::MachineKind::XeonQuadMp, w, p});
    return {
        study,
        {"xeon_cached_4p", {{core::MachineKind::XeonQuadMp, 10, 4}}, false},
        {"itanium2_scaled_1p",
         {{core::MachineKind::Itanium2Quad, 800, 1}}, false},
    };
}

// ------------------------------------------------------------------
// Command line

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    unsigned seconds = 10;
    bool trace = false;
    unsigned jobs = 0; ///< 0 until resolved to min(4, nproc).
    std::string goldenDir = "perfbench/golden";
    std::string rev = "unknown";
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr,
                 "odbsim_perfbench: %s\n"
                 "usage: odbsim_perfbench --workload <name> [--seed N] "
                 "[--seconds 1..600] [--trace 0|1] [--jobs 1..256] "
                 "[--golden-dir DIR] [--rev TEXT]\n",
                 msg.c_str());
    std::exit(2);
}

/** Parse a whole decimal number in [lo, hi]; anything else is fatal. */
std::uint64_t
parseNumber(const std::string &flag, const std::string &text,
            std::uint64_t lo, std::uint64_t hi)
{
    const bool digits =
        !text.empty() && text.size() <= 20 &&
        std::all_of(text.begin(), text.end(),
                    [](char c) { return c >= '0' && c <= '9'; });
    errno = 0;
    const unsigned long long v =
        digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
    if (!digits || errno == ERANGE || v < lo || v > hi) {
        usageError(flag + " wants a whole number in [" +
                   std::to_string(lo) + ", " + std::to_string(hi) +
                   "], got '" + text + "'");
    }
    return v;
}

unsigned
hostCores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool jobs_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usageError("missing value after " + flag);
        const std::string val = argv[++i];
        if (flag == "--workload") {
            o.workload = val;
        } else if (flag == "--seed") {
            o.seed = parseNumber(flag, val, 0, UINT64_MAX);
        } else if (flag == "--seconds") {
            o.seconds = static_cast<unsigned>(parseNumber(flag, val, 1, 600));
        } else if (flag == "--trace") {
            o.trace = parseNumber(flag, val, 0, 1) == 1;
        } else if (flag == "--jobs") {
            o.jobs = static_cast<unsigned>(parseNumber(flag, val, 1, 256));
            jobs_given = true;
        } else if (flag == "--golden-dir") {
            o.goldenDir = val;
        } else if (flag == "--rev") {
            o.rev = val;
        } else {
            usageError("unknown argument '" + flag + "'");
        }
    }
    if (o.workload.empty())
        usageError("--workload is required");
    const auto all = workloads();
    if (std::none_of(all.begin(), all.end(), [&](const Workload &w) {
            return w.name == o.workload;
        })) {
        std::string names;
        for (const auto &w : all)
            names += " " + w.name;
        usageError("unknown workload '" + o.workload + "'; choose one of:" +
                   names);
    }
    if (!jobs_given)
        o.jobs = std::min(4u, hostCores());
    return o;
}

// ------------------------------------------------------------------
// Small helpers

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Restart the process's resident-memory high-water mark (Linux). */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Resident-memory high-water mark since the last resetPeakRss(). */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // KiB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ------------------------------------------------------------------
// Reference rows

using Rows = std::map<std::string, std::string>; ///< "P,W" -> CSV row

std::string
rowKey(const std::string &row)
{
    const auto first = row.find(',');
    const auto second = row.find(',', first + 1);
    return row.substr(0, second);
}

/** The golden-CSV row of @p r, formatted by core::saveStudyCsv. */
std::string
rowOf(const core::RunResult &r, std::string &header)
{
    core::StudyResult s;
    s.series.resize(1);
    s.series[0].points = {r};
    std::ostringstream csv;
    core::saveStudyCsv(s, csv);
    std::istringstream in(csv.str());
    std::string row;
    std::getline(in, header);
    std::getline(in, row);
    return row;
}

Rows
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "odbsim_perfbench: cannot read reference %s\n",
                     path.c_str());
        std::exit(2);
    }
    Rows rows;
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        if (!line.empty())
            rows[rowKey(line)] = line;
    }
    return rows;
}

std::vector<std::string>
splitCsv(const std::string &row)
{
    std::vector<std::string> out;
    std::istringstream in(row);
    std::string f;
    while (std::getline(in, f, ','))
        out.push_back(f);
    return out;
}

/**
 * Checks each measured point against its expected CSV row: the
 * committed reference at the default seed, else the first
 * measurement of the same point in this process.
 */
class RowChecker
{
  public:
    RowChecker(const Options &o, const Workload &w)
    {
        if (o.seed != kDefaultSeed)
            return;
        for (const Point &p : w.points) {
            const std::string machine = core::toString(p.machine);
            if (!golden_.count(machine))
                golden_[machine] =
                    loadGolden(o.goldenDir + "/" + machine + ".csv");
        }
    }

    /** @return true if @p r matches; prints a column diff if not. */
    bool
    check(const Point &p, const core::RunResult &r)
    {
        std::string header;
        const std::string row = rowOf(r, header);
        const std::string key =
            std::string(core::toString(p.machine)) + "/" + rowKey(row);
        std::string want;
        if (!golden_.empty()) {
            const Rows &g = golden_.at(core::toString(p.machine));
            const auto it = g.find(rowKey(row));
            if (it == g.end()) {
                std::fprintf(stderr, "[perfbench] %s: no reference row\n",
                             key.c_str());
                return false;
            }
            want = it->second;
        } else {
            const auto [it, fresh] = first_.emplace(key, row);
            want = it->second;
            if (fresh && (r.txnsCommitted == 0 || r.eventsFired == 0)) {
                std::fprintf(stderr, "[perfbench] %s: empty run\n",
                             key.c_str());
                return false;
            }
        }
        if (row == want)
            return true;
        std::fprintf(stderr, "[perfbench] %s: row differs from %s\n",
                     key.c_str(),
                     golden_.empty() ? "the first run of this point"
                                     : "the committed reference");
        const auto cols = splitCsv(header);
        const auto a = splitCsv(want);
        const auto b = splitCsv(row);
        for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
            const std::string x = i < a.size() ? a[i] : "";
            const std::string y = i < b.size() ? b[i] : "";
            if (x != y)
                std::fprintf(stderr, "  %-14s want %s got %s\n",
                             i < cols.size() ? cols[i].c_str() : "?",
                             x.c_str(), y.c_str());
        }
        return false;
    }

  private:
    std::map<std::string, Rows> golden_;
    std::map<std::string, std::string> first_;
};

// ------------------------------------------------------------------
// Metrics and output

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

core::StudyConfig
studyConfig(const Options &o, const core::RunKnobs &knobs)
{
    // ScalingStudy::run directly: no study-CSV cache and no cost-hint
    // sidecar, so a run always measures and always dispatches in the
    // default W x P longest-first order.
    core::StudyConfig cfg;
    cfg.warehouses = kStudyWarehouses;
    cfg.processors = kStudyProcessors;
    cfg.machine = core::MachineKind::XeonQuadMp;
    cfg.knobs = knobs;
    cfg.jobs = o.jobs;
    return cfg;
}

std::vector<core::RunResult>
flatten(const core::StudyResult &s)
{
    std::vector<core::RunResult> out;
    for (const auto &series : s.series)
        out.insert(out.end(), series.points.begin(), series.points.end());
    return out;
}

/** Table 5 pivots, timed; pivots are in processor order 1P, 2P, 4P. */
struct Pivots
{
    double fitSeconds = 0.0;
    std::vector<double> cpi, mpi;

    double
    meanAbsErrorW() const
    {
        double sum = 0.0;
        for (std::size_t i = 0; i < cpi.size(); ++i)
            sum += std::abs(cpi[i] - kPaperCpiPivotW[i]) +
                   std::abs(mpi[i] - kPaperMpiPivotW[i]);
        return sum / static_cast<double>(2 * cpi.size());
    }
};

Pivots
fitPivots(const core::StudyResult &s)
{
    Pivots p;
    const auto t0 = Clock::now();
    const core::Recommendation rec =
        core::RepresentativeConfigSelector::select(s);
    p.fitSeconds = secondsSince(t0);
    for (const core::PivotRow &row : rec.pivots) {
        p.cpi.push_back(row.cpiPivotW);
        p.mpi.push_back(row.mpiPivotW);
    }
    return p;
}

// ------------------------------------------------------------------
// Untraced run: end-to-end metrics

std::vector<Metric>
runUntraced(const Options &o, const Workload &w, Tally &tally,
            std::vector<Metric> &extra)
{
    core::RunKnobs knobs;
    knobs.seed = o.seed;

    RowChecker checker(o, w);
    std::vector<double> walls, cpus, rss;
    double events = 0.0, point_wall = 0.0;
    Pivots pivots;
    const auto start = Clock::now();
    std::vector<double> passes;
    while (walls.empty() || secondsSince(start) < o.seconds) {
        // setup_s: a set-up-only pass over the workload's points before
        // each timed unit, so its samples spread over the whole run.
        double setup = 0.0;
        for (const Point &p : w.points)
            setup += timeSetUp(p, knobs);
        passes.push_back(setup);

        std::vector<core::RunResult> results;
        resetPeakRss();
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        if (w.study) {
            const core::StudyResult s =
                core::ScalingStudy::run(studyConfig(o, knobs));
            walls.push_back(secondsSince(t0));
            cpus.push_back(processCpuSeconds() - cpu0);
            rss.push_back(peakRssMb());
            if (pivots.cpi.empty())
                pivots = fitPivots(s);
            results = flatten(s);
        } else {
            results.push_back(
                core::ExperimentRunner::run(w.points[0].config(), knobs));
            walls.push_back(secondsSince(t0));
            cpus.push_back(processCpuSeconds() - cpu0);
            rss.push_back(peakRssMb());
        }
        for (std::size_t i = 0; i < results.size(); ++i) {
            const core::RunResult &r = results[i];
            ++tally.attempted;
            if (!checker.check(w.points[i], r))
                ++tally.failed;
            events += static_cast<double>(r.eventsFired);
            point_wall += r.wallSeconds;
        }
    }

    extra.push_back({"points", static_cast<double>(tally.attempted),
                     "count"});
    extra.push_back({"points_failed", static_cast<double>(tally.failed),
                     "count"});
    extra.push_back({"timed_units", static_cast<double>(walls.size()),
                     "count"});
    if (w.study)
        extra.push_back({"pivot_err_w", pivots.meanAbsErrorW(), "W"});
    return {
        {"wall_s", median(walls), "s"},
        {"setup_s", median(passes), "s"},
        {"events_per_s", events / point_wall, "1/s"},
        {"cpu_s", median(cpus), "s"},
        {"peak_rss_mb", median(rss), "MB"},
    };
}

// ------------------------------------------------------------------
// Traced run: per-layer metrics

/** How a per-point value combines over the points of a study. */
enum class Combine { Sum, Mean };

/** Per-point layer metrics read off one traced point. */
std::vector<std::pair<std::string, double>>
pointMetrics(const PointTrace &t)
{
    const Span &warm = t.span("os.run_warmup");
    const Span &measure = t.span("os.run_measure");
    std::vector<std::pair<std::string, double>> m = {
        {"os.system_build_s", t.span("os.system_build").seconds()},
        {"db.database_build_s", t.span("db.database_build").seconds()},
        {"odb.workload_start_s", t.span("odb.workload_start").seconds()},
        {"db.instant_warm_s", t.span("db.instant_warm").seconds()},
        {"os.run_warmup_s", warm.seconds()},
        {"os.run_measure_s", measure.seconds()},
        {"sim.events_warmup", warm.count("sim.events")},
        {"sim.events_measure", measure.count("sim.events")},
    };
    // The warm-up span carries only the per-span work deltas; the
    // measure span carries the same deltas first, then the
    // measurement-window outcomes.
    for (const auto &[k, x] : warm.counts) {
        if (k != "sim.events")
            m.push_back({k, x + measure.count(k)});
    }
    m.insert(m.end(), measure.counts.begin() + warm.counts.size(),
             measure.counts.end());
    return m;
}

Combine
combineOf(const std::string &name)
{
    static const char *const means[] = {
        "mem.dir_tracked_lines", "mem.bus_util",   "mem.ioq_wait_cycles",
        "os.disk_read_ms",       "os.disk_util",   "odb.txn_p95_ms",
        "sim.pending_events",
    };
    for (const char *m : means) {
        if (name == m)
            return Combine::Mean;
    }
    return Combine::Sum;
}

/** The per-layer metric names and units, in report order. */
const std::vector<std::pair<std::string, std::string>> &
perLayerSchema()
{
    static const std::vector<std::pair<std::string, std::string>> s = {
        {"os.system_build_s", "s"},
        {"db.database_build_s", "s"},
        {"odb.workload_start_s", "s"},
        {"db.instant_warm_s", "s"},
        {"os.run_warmup_s", "s"},
        {"os.run_measure_s", "s"},
        {"sim.events_warmup", "count"},
        {"sim.events_measure", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.pending_events", "count"},
        {"cpu.instr_user", "count"},
        {"cpu.instr_os", "count"},
        {"cpu.cycles", "count"},
        {"cpu.branch_mispredicts", "count"},
        {"cpu.tlb_misses", "count"},
        {"cpu.tc_misses", "count"},
        {"mem.l2_accesses", "count"},
        {"mem.l2_misses", "count"},
        {"mem.l3_accesses", "count"},
        {"mem.l3_misses", "count"},
        {"mem.l3_writebacks", "count"},
        {"mem.l2_hit_ratio", "ratio"},
        {"mem.l3_hit_ratio", "ratio"},
        {"mem.dir_invalidations", "count"},
        {"mem.dir_coherence_misses", "count"},
        {"mem.dir_tracked_lines", "count"},
        {"mem.bus_util", "ratio"},
        {"mem.ioq_wait_cycles", "cycles"},
        {"os.disk_reads", "count"},
        {"os.disk_writes", "count"},
        {"os.log_writes", "count"},
        {"os.disk_read_ms", "ms"},
        {"os.disk_util", "ratio"},
        {"os.ctx_switches", "count"},
        {"db.buffer_misses", "count"},
        {"db.buffer_hit_ratio", "ratio"},
        {"db.lock_conflicts", "count"},
        {"db.redo_flushes", "count"},
        {"db.redo_bytes", "bytes"},
        {"db.dbwr_blocks_written", "count"},
        {"odb.commits", "count"},
        {"odb.txn_p95_ms", "ms"},
        {"core.point_s_p50", "s"},
        {"core.point_s_max", "s"},
        {"core.pool_idle_s", "s"},
        {"analysis.pivot_fit_s", "s"},
        {"analysis.cpi_pivot_w.1p", "W"},
        {"analysis.cpi_pivot_w.2p", "W"},
        {"analysis.cpi_pivot_w.4p", "W"},
        {"analysis.mpi_pivot_w.1p", "W"},
        {"analysis.mpi_pivot_w.2p", "W"},
        {"analysis.mpi_pivot_w.4p", "W"},
        {"analysis.pivot_err_w", "W"},
        {"bench.trace_overhead_s", "s"},
    };
    return s;
}

void
writeSpans(const std::string &path, const std::vector<PointTrace> &traces,
           const std::vector<std::pair<unsigned, Span>> &study_spans)
{
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    bool first = true;
    auto emit = [&](unsigned point, const Span &s) {
        out << (first ? "" : ",\n") << "{\"point\": " << point
            << ", \"name\": " << jsonString(s.name)
            << ", \"parent\": " << s.parent
            << ", \"start\": " << jsonNumber(s.start)
            << ", \"end\": " << jsonNumber(s.end) << ", \"counts\": {";
        for (std::size_t i = 0; i < s.counts.size(); ++i)
            out << (i ? ", " : "") << jsonString(s.counts[i].first) << ": "
                << jsonNumber(s.counts[i].second);
        out << "}}";
        first = false;
    };
    for (const auto &[point, s] : study_spans)
        emit(point, s);
    for (const PointTrace &t : traces)
        for (const Span &s : t.spans)
            emit(t.pointId, s);
    out << "\n]}\n";
}

std::vector<Metric>
runTraced(const Options &o, const Workload &w, Tally &tally)
{
    core::RunKnobs knobs;
    knobs.seed = o.seed;
    RowChecker checker(o, w);
    const auto origin = Clock::now();

    std::vector<PointTrace> traces;
    std::vector<core::RunResult> untraced; // parallel to traces
    std::vector<std::pair<unsigned, Span>> study_spans; // (point id, span)
    std::map<std::string, double> v;
    double untraced_wall = 0.0, traced_wall = 0.0;

    if (w.study) {
        // The study itself, with a core span per point from onPoint:
        // end = callback time, start = end - the point's wall time.
        core::StudyConfig cfg = studyConfig(o, knobs);
        cfg.onPoint = [&](const core::RunResult &r) {
            const double end = secondsSince(origin);
            const auto it = std::find_if(
                w.points.begin(), w.points.end(), [&](const Point &p) {
                    return p.warehouses == r.warehouses &&
                           p.processors == r.processors;
                });
            study_spans.push_back(
                {static_cast<unsigned>(it - w.points.begin()),
                 {"core.study_point", -1, end - r.wallSeconds, end, {}}});
        };
        const auto t0 = Clock::now();
        const core::StudyResult s = core::ScalingStudy::run(cfg);
        untraced_wall = secondsSince(t0);
        untraced = flatten(s);

        const Pivots piv = fitPivots(s);
        v["analysis.pivot_fit_s"] = piv.fitSeconds;
        const char *const tag[] = {"1p", "2p", "4p"};
        for (std::size_t i = 0; i < 3; ++i) {
            v[std::string("analysis.cpi_pivot_w.") + tag[i]] = piv.cpi[i];
            v[std::string("analysis.mpi_pivot_w.") + tag[i]] = piv.mpi[i];
        }
        v["analysis.pivot_err_w"] = piv.meanAbsErrorW();

        std::vector<double> point_walls;
        for (const auto &r : untraced)
            point_walls.push_back(r.wallSeconds);
        v["core.point_s_p50"] = median(point_walls);
        v["core.point_s_max"] =
            *std::max_element(point_walls.begin(), point_walls.end());
        const unsigned used =
            std::min<unsigned>(o.jobs, static_cast<unsigned>(w.points.size()));
        v["core.pool_idle_s"] =
            used * untraced_wall -
            std::accumulate(point_walls.begin(), point_walls.end(), 0.0);

        // Traced replay of every point on the same number of workers,
        // largest (W x P) first like the study's default dispatch.
        std::vector<std::size_t> order(w.points.size());
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             const Point &x = w.points[a], &y = w.points[b];
                             return x.warehouses * x.processors >
                                    y.warehouses * y.processors;
                         });
        traces.resize(w.points.size());
        std::atomic<std::size_t> next{0};
        const auto t1 = Clock::now();
        {
            std::vector<std::jthread> pool;
            for (unsigned j = 0; j < used; ++j)
                pool.emplace_back([&] {
                    for (std::size_t k; (k = next++) < order.size();) {
                        const std::size_t i = order[k];
                        traces[i] = tracePoint(w.points[i],
                                               static_cast<unsigned>(i),
                                               knobs, origin);
                    }
                });
        }
        traced_wall = secondsSince(t1);
    } else {
        // A point workload: alternate untraced and traced runs of the
        // point for the time budget.
        std::vector<double> walls, traced_walls;
        const auto start = Clock::now();
        while (walls.empty() || secondsSince(start) < o.seconds) {
            const auto t0 = Clock::now();
            untraced.push_back(
                core::ExperimentRunner::run(w.points[0].config(), knobs));
            walls.push_back(secondsSince(t0));
            traces.push_back(tracePoint(
                w.points[0], static_cast<unsigned>(traces.size()), knobs,
                origin));
            traced_walls.push_back(traces.back().spans.front().seconds());
        }
        untraced_wall = median(walls);
        traced_wall = median(traced_walls);
        v["core.point_s_p50"] = untraced_wall;
        v["core.point_s_max"] = *std::max_element(walls.begin(), walls.end());
        v["core.pool_idle_s"] = 0.0; // one worker, no pool
    }
    v["bench.trace_overhead_s"] = traced_wall - untraced_wall;

    // Bit-for-bit: traced replay against the untraced run of the same
    // point, and the untraced run against its reference row.
    for (std::size_t i = 0; i < traces.size(); ++i) {
        const Point &p = traces[i].point;
        ++tally.attempted;
        bool ok = checker.check(p, untraced[i]);
        for (const std::string &d : diffTrace(traces[i], untraced[i])) {
            std::fprintf(stderr, "[perfbench] %s W=%u P=%u trace mismatch: "
                                 "%s\n",
                         core::toString(p.machine), p.warehouses,
                         p.processors, d.c_str());
            ok = false;
        }
        if (!ok)
            ++tally.failed;
    }

    // Combine per-point values: over a study's points by Combine,
    // over a point workload's repeats by median.
    std::map<std::string, std::vector<double>> per;
    for (const PointTrace &t : traces)
        for (const auto &[k, x] : pointMetrics(t))
            per[k].push_back(x);
    for (auto &[k, xs] : per) {
        if (!w.study)
            v[k] = median(xs);
        else if (combineOf(k) == Combine::Sum)
            v[k] = std::accumulate(xs.begin(), xs.end(), 0.0);
        else
            v[k] = std::accumulate(xs.begin(), xs.end(), 0.0) /
                   static_cast<double>(xs.size());
    }
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    v["sim.ns_per_event"] =
        1e9 * ratio(v["os.run_warmup_s"] + v["os.run_measure_s"],
                    v["sim.events_warmup"] + v["sim.events_measure"]);
    v["mem.l2_hit_ratio"] = 1.0 - ratio(v["mem.l2_misses"],
                                        v["mem.l2_accesses"]);
    v["mem.l3_hit_ratio"] = 1.0 - ratio(v["mem.l3_misses"],
                                        v["mem.l3_accesses"]);
    v["db.buffer_hit_ratio"] = 1.0 - ratio(v["db.buffer_misses"],
                                           v["db.buffer_gets"]);

    std::filesystem::create_directories(kOutDir);
    const std::string spans_path = kOutDir + "/" + w.name + "-seed" +
                                   std::to_string(o.seed) + "-spans.json";
    writeSpans(spans_path, traces, study_spans);
    std::printf("spans written to %s\n", spans_path.c_str());

    std::vector<Metric> out;
    for (const auto &[name, unit] : perLayerSchema())
        out.push_back({name, v.count(name) ? v[name] : 0.0, unit});
    return out;
}

// ------------------------------------------------------------------

int
run(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    const std::string build_type = ODBSIM_PERFBENCH_BUILD_TYPE;
    if (build_type != "Release") {
        std::fprintf(stderr,
                     "odbsim_perfbench: refusing to time a '%s' build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     build_type.c_str());
        return 2;
    }
    Workload w;
    for (const Workload &c : workloads())
        if (c.name == o.workload)
            w = c;

    Tally tally;
    std::vector<Metric> extra;
    const std::vector<Metric> metrics =
        o.trace ? runTraced(o, w, tally) : runUntraced(o, w, tally, extra);
    const bool correct = tally.failed == 0;

    std::ostringstream prov;
    prov << "{\"workload\": " << jsonString(w.name)
         << ", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
         << ", \"trace\": " << (o.trace ? 1 : 0)
         << ", \"host_cores\": " << hostCores() << ", \"jobs\": " << o.jobs
         << ", \"build_type\": " << jsonString(build_type)
         << ", \"compiler\": " << jsonString(ODBSIM_PERFBENCH_COMPILER)
         << ", \"rev\": " << jsonString(o.rev) << "}";

    std::printf("odbsim perfbench  %s\n", prov.str().c_str());
    for (const Metric &m : metrics)
        std::printf("  %-26s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : extra)
        std::printf("  %-26s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  correct=%s attempted=%llu failed=%llu\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));

    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << tally.attempted
           << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        result << (i ? ", " : "") << jsonString(metrics[i].name)
               << ": {\"value\": " << jsonNumber(metrics[i].value)
               << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    result << "}}";

    std::filesystem::create_directories(kOutDir);
    std::ofstream(kOutDir + "/" + w.name + "-seed" +
                  std::to_string(o.seed) + "-trace" +
                  (o.trace ? "1" : "0") + ".json")
        << "{\"provenance\": " << prov.str()
        << ", \"result\": " << result.str() << "}\n";

    std::fflush(stdout);
    std::printf("%s\n", result.str().c_str());
    return correct ? 0 : 1;
}

} // namespace
} // namespace odbsim::perfbench

int
main(int argc, char **argv)
{
    return odbsim::perfbench::run(argc, argv);
}
