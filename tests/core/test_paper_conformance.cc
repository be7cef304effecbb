/**
 * @file
 * Paper conformance: the qualitative Section 6 results EXPERIMENTS.md
 * claims for Table 5 and Figures 17-19, asserted on the committed
 * study references in tests/golden/ through the two-segment
 * piecewise fits. The known fidelity gaps to the paper's pivot
 * values are printed as numbers, so they are tracked, not hidden.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "analysis/piecewise.hh"
#include "core/scaling_study.hh"
#include "core/study_io.hh"

#ifndef ODBSIM_GOLDEN_DIR
#error "ODBSIM_GOLDEN_DIR must name the committed reference directory"
#endif

namespace
{

using namespace odbsim;
using namespace odbsim::core;

/** The paper's headline criterion for a representative setup. */
constexpr double pivotCeilingW = 150.0;
/** How far a CPI pivot may sit from its MPI pivot ("a few W"). */
constexpr double pivotAgreementW = 5.0;
/** Minimum r² of the 4P cached-region CPI line (Fig 17). */
constexpr double cachedFitR2 = 0.9;

/** Table 5 of the paper, indexed like processorCounts. */
constexpr unsigned processorCounts[] = {1, 2, 4};
constexpr double paperCpiPivotW[] = {119, 142, 130};
constexpr double paperMpiPivotW[] = {102, 147, 144};
/** Fig 19: the paper's Itanium2 CPI pivot. */
constexpr double paperItanium2PivotW = 118;

StudyResult
golden(const std::string &file)
{
    StudyResult study;
    const std::string path = std::string(ODBSIM_GOLDEN_DIR) + "/" + file;
    EXPECT_TRUE(loadStudyCsv(path, study)) << "cannot load " << path;
    return study;
}

const StudyResult &
xeon()
{
    static const StudyResult s = golden("xeon-quad-mp.csv");
    return s;
}

const StudyResult &
itanium2()
{
    static const StudyResult s = golden("itanium2-quad.csv");
    return s;
}

TEST(PaperConformance, Table5PivotsBelow150W)
{
    for (const unsigned p : processorCounts) {
        const StudySeries &s = xeon().forProcessors(p);
        EXPECT_LT(s.cpiFit().pivotX, pivotCeilingW) << p << "P CPI";
        EXPECT_LT(s.mpiFit().pivotX, pivotCeilingW) << p << "P MPI";
    }
}

TEST(PaperConformance, Table5OneProcessorPivotIsSmallest)
{
    const StudySeries &p1 = xeon().forProcessors(1);
    for (const unsigned p : {2u, 4u}) {
        const StudySeries &pn = xeon().forProcessors(p);
        EXPECT_LT(p1.cpiFit().pivotX, pn.cpiFit().pivotX) << p << "P CPI";
        EXPECT_LT(p1.mpiFit().pivotX, pn.mpiFit().pivotX) << p << "P MPI";
    }
}

TEST(PaperConformance, Table5CpiAndMpiPivotsAgree)
{
    for (const unsigned p : processorCounts) {
        const StudySeries &s = xeon().forProcessors(p);
        EXPECT_LE(std::abs(s.cpiFit().pivotX - s.mpiFit().pivotX),
                  pivotAgreementW)
            << p << "P";
    }
}

TEST(PaperConformance, Fig17FourProcessorCachedSegmentFits)
{
    const analysis::PiecewiseFit fit = xeon().forProcessors(4).cpiFit();
    EXPECT_GE(fit.cached.r2, cachedFitR2);
}

TEST(PaperConformance, Fig19Itanium2FlatterCachedSlopeAndLowerCpi)
{
    const StudySeries &i2 = itanium2().forProcessors(4);
    const StudySeries &xs = xeon().forProcessors(4);
    EXPECT_LT(i2.cpiFit().cached.slope, xs.cpiFit().cached.slope);
    for (const unsigned p : processorCounts) {
        const StudySeries &a = itanium2().forProcessors(p);
        const StudySeries &b = xeon().forProcessors(p);
        ASSERT_EQ(a.points.size(), b.points.size());
        for (std::size_t i = 0; i < a.points.size(); ++i) {
            ASSERT_EQ(a.points[i].warehouses, b.points[i].warehouses);
            EXPECT_LT(a.points[i].cpi, b.points[i].cpi)
                << p << "P at " << a.points[i].warehouses << " W";
        }
    }
}

/**
 * Not a pass/fail check: prints how far the measured pivots sit from
 * the paper's, so the fidelity gaps are tracked numbers.
 */
TEST(PaperConformance, ReportPivotGapsToPaper)
{
    std::printf("%-10s %9s %9s %9s %9s %9s %9s\n", "pivot", "CPI meas",
                "CPI paper", "CPI gap", "MPI meas", "MPI paper",
                "MPI gap");
    for (std::size_t i = 0; i < std::size(processorCounts); ++i) {
        const StudySeries &s = xeon().forProcessors(processorCounts[i]);
        const double cpi = s.cpiFit().pivotX;
        const double mpi = s.mpiFit().pivotX;
        std::printf("Xeon %uP    %9.1f %9.0f %+9.1f %9.1f %9.0f %+9.1f\n",
                    processorCounts[i], cpi, paperCpiPivotW[i],
                    cpi - paperCpiPivotW[i], mpi, paperMpiPivotW[i],
                    mpi - paperMpiPivotW[i]);
    }
    const double i2 = itanium2().forProcessors(4).cpiFit().pivotX;
    std::printf("Itanium2 4P %8.1f %9.0f %+9.1f\n", i2,
                paperItanium2PivotW, i2 - paperItanium2PivotW);
    const analysis::PiecewiseFit xs = xeon().forProcessors(4).cpiFit();
    const analysis::PiecewiseFit ia = itanium2().forProcessors(4).cpiFit();
    std::printf("4P cached CPI slope: Xeon %.6f, Itanium2 %.6f (%.1fx "
                "flatter); Xeon cached r2 %.3f\n",
                xs.cached.slope, ia.cached.slope,
                xs.cached.slope / ia.cached.slope, xs.cached.r2);
}

} // namespace
