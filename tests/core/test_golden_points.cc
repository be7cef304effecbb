/**
 * @file
 * Golden grid points: re-measure a few cheap points of the paper
 * studies with default RunKnobs and require each one's study-CSV row
 * to match its row in the committed references under tests/golden/
 * byte for byte. Any change to simulated behaviour fails here, in the
 * tier-1 suite, instead of only in the Release smoke script.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/study_io.hh"

#ifndef ODBSIM_GOLDEN_DIR
#error "ODBSIM_GOLDEN_DIR must name the committed reference directory"
#endif

namespace
{

using namespace odbsim;
using namespace odbsim::core;

std::vector<std::string>
splitCsv(const std::string &line)
{
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ','))
        cells.push_back(cell);
    return cells;
}

/** Header and row for (P, W) of @p golden_file; fails if absent. */
void
goldenRow(const std::string &golden_file, unsigned processors,
          unsigned warehouses, std::string &header, std::string &row)
{
    const std::string path = std::string(ODBSIM_GOLDEN_DIR) + "/" +
                             golden_file;
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing reference " << path;
    ASSERT_TRUE(std::getline(in, header)) << "empty reference " << path;
    const std::string key = std::to_string(processors) + "," +
                            std::to_string(warehouses) + ",";
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0) {
            row = line;
            return;
        }
    }
    FAIL() << path << " has no row for P=" << processors
           << " W=" << warehouses;
}

/** Measure (machine, W, P) and format it exactly as saveStudyCsv. */
void
measuredRow(MachineKind machine, unsigned processors,
            unsigned warehouses, std::string &header, std::string &row)
{
    OltpConfiguration cfg;
    cfg.machine = machine;
    cfg.processors = processors;
    cfg.warehouses = warehouses;
    StudyResult study;
    study.series.push_back({processors, {ExperimentRunner::run(cfg)}});
    std::stringstream csv;
    saveStudyCsv(study, csv);
    std::getline(csv, header);
    std::getline(csv, row);
}

void
expectGoldenPoint(MachineKind machine, const char *golden_file,
                  unsigned processors, unsigned warehouses)
{
    std::string golden_header, golden;
    goldenRow(golden_file, processors, warehouses, golden_header, golden);
    if (::testing::Test::HasFatalFailure())
        return;
    std::string header, measured;
    measuredRow(machine, processors, warehouses, header, measured);
    ASSERT_EQ(header, golden_header) << "CSV schema changed";
    if (measured == golden)
        return;

    const std::vector<std::string> names = splitCsv(header);
    const std::vector<std::string> want = splitCsv(golden);
    const std::vector<std::string> got = splitCsv(measured);
    std::ostringstream diff;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string w = i < want.size() ? want[i] : "<absent>";
        const std::string g = i < got.size() ? got[i] : "<absent>";
        if (w != g)
            diff << "\n  " << names[i] << ": golden " << w
                 << ", measured " << g;
    }
    ADD_FAILURE() << golden_file << " P=" << processors
                  << " W=" << warehouses
                  << " differs from the committed row:" << diff.str();
}

TEST(GoldenPoints, XeonW10P1)
{
    expectGoldenPoint(MachineKind::XeonQuadMp, "xeon-quad-mp.csv", 1, 10);
}

TEST(GoldenPoints, XeonW10P4)
{
    expectGoldenPoint(MachineKind::XeonQuadMp, "xeon-quad-mp.csv", 4, 10);
}

TEST(GoldenPoints, Itanium2W10P1)
{
    expectGoldenPoint(MachineKind::Itanium2Quad, "itanium2-quad.csv", 1,
                      10);
}

} // namespace
