/**
 * @file
 * Shared infrastructure for the reproduction benches: each bench
 * regenerates one table or figure of the paper. The full W x P
 * characterization study is expensive, so its results are cached in a
 * CSV next to the working directory and shared by every bench binary
 * (delete the file, or set ODBSIM_NO_CACHE=1, to force remeasurement).
 */

#ifndef ODBSIM_BENCH_SUPPORT_BENCH_COMMON_HH
#define ODBSIM_BENCH_SUPPORT_BENCH_COMMON_HH

#include <functional>
#include <initializer_list>
#include <string>

#include "core/scaling_study.hh"

namespace odbsim::bench
{

/** The W grid used by the paper-figure benches. */
std::vector<unsigned> figureWarehouseGrid();

/**
 * Parse the shared bench command line — the single home of the
 * CLI/env parsing every bench main shares:
 *
 *  - `--jobs N` / `-j N` (env `ODBSIM_JOBS`): worker count used to
 *    measure study grid points (0 = one worker per hardware thread,
 *    1 = serial; default);
 *  - `--profile` (env `ODBSIM_PROFILE`): print per-grid-point wall
 *    time and events fired as points complete (and a study total),
 *    plus write a `*_profile.csv` sidecar next to the study cache;
 *  - `--csv-dir DIR` (env `ODBSIM_CSV_DIR`; legacy `ODBSIM_CACHE_DIR`
 *    still honoured): directory for the shared study-cache CSVs (and
 *    their profile sidecars). Defaults to the directory holding the
 *    bench binary — the build tree — so stray CSVs never land in the
 *    source tree or whatever directory the bench was invoked from.
 *
 * Flags win over the environment. Arguments not starting with `--`
 * are left to the caller (positional names such as `itanium2`);
 * @p own lists the `--` flags the calling binary parses itself. Any
 * other `--` flag, a missing value, or a `--jobs`/`ODBSIM_JOBS` count
 * that is not plain decimal digits in [0, 1024] exits with status 2
 * and a message naming the flag, before any simulation starts.
 * Results are seed-deterministic regardless of the job count
 * (profiling only observes, never perturbs, the simulation).
 */
void parseArgs(int argc, char **argv,
               std::initializer_list<const char *> own = {});

/** The worker count selected by parseArgs()/ODBSIM_JOBS (default 1). */
unsigned studyJobs();

/** True if --profile / ODBSIM_PROFILE=1 requested per-point timing. */
bool profileEnabled();

/** Study-cache CSV directory selected by --csv-dir/ODBSIM_CSV_DIR
 *  (default: the directory holding the bench binary). */
const std::string &csvDir();

/**
 * Obtain the full characterization study for @p machine, from the CSV
 * cache when present, measuring (and caching) otherwise.
 */
core::StudyResult sharedStudy(core::MachineKind machine);

/** Serialize a study to CSV. */
void saveStudy(const core::StudyResult &study, const std::string &path);

/** Load a study from CSV; returns false if absent/invalid. */
bool loadStudy(const std::string &path, core::StudyResult &out);

/** Print the standard bench banner. */
void banner(const char *artifact, const char *caption);

/**
 * Print one metric as a W-by-P table (the shape of the paper's
 * line-chart figures).
 */
void printMetricByW(const core::StudyResult &study, const char *metric,
                    const std::function<double(const core::RunResult &)>
                        &get,
                    int decimals = 2);

/** Print the paper's qualitative expectation for this artifact. */
void paperNote(const char *note);

} // namespace odbsim::bench

#endif // ODBSIM_BENCH_SUPPORT_BENCH_COMMON_HH
