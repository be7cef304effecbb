#include "bench_common.hh"

#include "core/study_io.hh"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace odbsim::bench
{

std::vector<unsigned>
figureWarehouseGrid()
{
    return {10, 25, 35, 50, 75, 100, 150, 200, 300, 400, 600, 800};
}

namespace
{

/** Worker count for study measurement (--jobs / ODBSIM_JOBS). */
unsigned g_jobs = 1;

/** Per-point wall-time reporting; seeded from ODBSIM_PROFILE. */
bool g_profile = []() {
    const char *env = std::getenv("ODBSIM_PROFILE");
    return env && *env && std::strcmp(env, "0") != 0;
}();

/** Largest accepted thread-count knob (0 still means "one per
 *  hardware thread"). */
constexpr unsigned maxThreads = 1024;

/** Report an invalid knob value and exit with status 2. */
[[noreturn]] void
rejectKnob(const char *knob, const char *text, const char *why)
{
    std::fprintf(stderr, "[bench] invalid %s '%s': %s\n", knob, text,
                 why);
    std::exit(2);
}

/**
 * Parse @p text as the value of thread-count knob @p knob: plain
 * decimal digits only (no sign, whitespace or suffix), in
 * [0, maxThreads]. Anything else ends the process through rejectKnob().
 */
unsigned
parseThreads(const char *knob, const char *text)
{
    bool digits = *text != '\0';
    for (const char *c = text; *c && digits; ++c)
        digits = *c >= '0' && *c <= '9';
    if (!digits)
        rejectKnob(knob, text, "expected a non-negative integer");
    errno = 0;
    const unsigned long long v = std::strtoull(text, nullptr, 10);
    if (errno == ERANGE || v > maxThreads) {
        char why[64];
        std::snprintf(why, sizeof why, "expected an integer in [0, %u]",
                      maxThreads);
        rejectKnob(knob, text, why);
    }
    return static_cast<unsigned>(v);
}

/** Study-cache CSV directory; resolution order is --csv-dir >
 *  ODBSIM_CSV_DIR > ODBSIM_CACHE_DIR (legacy) > dir(argv[0]),
 *  finalized by parseArgs(). */
std::string g_csv_dir = []() -> std::string {
    if (const char *env = std::getenv("ODBSIM_CSV_DIR"))
        return env;
    if (const char *env = std::getenv("ODBSIM_CACHE_DIR"))
        return env;
    return {};
}();

std::string
cachePath(core::MachineKind machine)
{
    std::string path = csvDir();
    path += "/odbsim_study_";
    path += core::toString(machine);
    path += ".csv";
    return path;
}

/** `<cache>.csv` → `<cache>_profile.csv` (the wall-time sidecar). */
std::string
profilePath(const std::string &study_path)
{
    std::string path = study_path;
    const std::string suffix = ".csv";
    path.replace(path.size() - suffix.size(), suffix.size(),
                 "_profile.csv");
    return path;
}

} // namespace

void
parseArgs(int argc, char **argv, std::initializer_list<const char *> own)
{
    // Environment first, so the flags below override it.
    if (const char *env = std::getenv("ODBSIM_JOBS"))
        g_jobs = parseThreads("ODBSIM_JOBS", env);

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                rejectKnob(arg, "", "missing value");
            return argv[++i];
        };
        if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
            g_jobs = parseThreads(arg, value());
        } else if (std::strcmp(arg, "--profile") == 0) {
            g_profile = true;
        } else if (std::strcmp(arg, "--csv-dir") == 0) {
            g_csv_dir = value();
        } else if (std::strncmp(arg, "--", 2) == 0 &&
                   std::none_of(own.begin(), own.end(),
                                [arg](const char *flag) {
                                    return std::strcmp(arg, flag) == 0;
                                })) {
            rejectKnob(arg, "", "unknown flag");
        }
    }
    // No explicit directory anywhere: default to the directory holding
    // the bench binary (the build tree), so caches land in one
    // predictable place no matter where the bench is invoked from.
    if (g_csv_dir.empty() && argc > 0 && argv[0]) {
        const std::string self = argv[0];
        const std::size_t slash = self.rfind('/');
        if (slash != std::string::npos && slash > 0)
            g_csv_dir = self.substr(0, slash);
    }
}

unsigned
studyJobs()
{
    return g_jobs;
}

bool
profileEnabled()
{
    return g_profile;
}

const std::string &
csvDir()
{
    static const std::string dot = ".";
    return g_csv_dir.empty() ? dot : g_csv_dir;
}

void
saveStudy(const core::StudyResult &study, const std::string &path)
{
    core::saveStudyCsv(study, path);
}

bool
loadStudy(const std::string &path, core::StudyResult &out)
{
    return core::loadStudyCsv(path, out);
}

core::StudyResult
sharedStudy(core::MachineKind machine)
{
    const std::string path = cachePath(machine);
    const bool no_cache = std::getenv("ODBSIM_NO_CACHE") != nullptr;
    core::StudyResult study;
    if (!no_cache && loadStudy(path, study)) {
        std::fprintf(stderr, "[bench] loaded cached study from %s\n",
                     path.c_str());
        if (g_profile)
            std::fprintf(stderr, "[bench] --profile: study came from "
                                 "the cache; no points were measured\n");
        return study;
    }

    std::fprintf(stderr,
                 "[bench] measuring full %s characterization study "
                 "(jobs=%u)...\n",
                 core::toString(machine), g_jobs);
    core::StudyConfig cfg;
    cfg.warehouses = figureWarehouseGrid();
    cfg.machine = machine;
    cfg.jobs = g_jobs;
    cfg.onPoint = [](const core::RunResult &r) {
        if (g_profile) {
            std::fprintf(stderr,
                         "[bench]   W=%u P=%u done (tps %.0f) "
                         "wall %.3fs  %" PRIu64 " events  %.2fM ev/s\n",
                         r.warehouses, r.processors, r.tps,
                         r.wallSeconds, r.eventsFired,
                         r.eventsPerSec() / 1e6);
        } else {
            std::fprintf(stderr, "[bench]   W=%u P=%u done (tps %.0f)\n",
                         r.warehouses, r.processors, r.tps);
        }
    };
    study = core::ScalingStudy::run(cfg);
    if (g_profile) {
        double wall = 0.0;
        std::uint64_t events = 0;
        for (const auto &s : study.series) {
            for (const auto &p : s.points) {
                wall += p.wallSeconds;
                events += p.eventsFired;
            }
        }
        std::fprintf(stderr,
                     "[bench] study total: %.3f CPU-seconds, %" PRIu64
                     " events (%.2fM ev/s)\n",
                     wall, events,
                     wall > 0.0 ? static_cast<double>(events) / wall / 1e6
                                : 0.0);
        // Wall time is host-dependent, so the profile is a sidecar —
        // never part of the golden study CSV.
        const std::string profile_path = profilePath(path);
        if (core::saveStudyProfileCsv(study, profile_path))
            std::fprintf(stderr, "[bench] wrote per-point profile to "
                                 "%s\n",
                         profile_path.c_str());
    }
    if (!no_cache)
        saveStudy(study, path);
    return study;
}

void
banner(const char *artifact, const char *caption)
{
    std::printf("\n================================================"
                "=============================\n");
    std::printf("%s — %s\n", artifact, caption);
    std::printf("Hankins et al., \"Scaling and Characterizing Database "
                "Workloads\", MICRO 2003\n");
    std::printf("=================================================="
                "===========================\n\n");
}

void
printMetricByW(const core::StudyResult &study, const char *metric,
               const std::function<double(const core::RunResult &)> &get,
               int decimals)
{
    std::printf("%-14s", "warehouses");
    for (const auto &s : study.series)
        std::printf("  %8uP", s.processors);
    std::printf("\n");
    const std::size_t rows = study.series.front().points.size();
    for (std::size_t i = 0; i < rows; ++i) {
        std::printf("%-14u",
                    study.series.front().points[i].warehouses);
        for (const auto &s : study.series)
            std::printf("  %9.*f", decimals, get(s.points[i]));
        std::printf("\n");
    }
    std::printf("(metric: %s)\n", metric);
}

void
paperNote(const char *note)
{
    std::printf("\npaper: %s\n", note);
}

} // namespace odbsim::bench
