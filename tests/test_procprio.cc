/**
 * @file
 * Tests for the Section 4 reduced Markov chain (processor priority).
 *
 * The printed formulas for P2, P1 and one class-3 transition are
 * OCR-degraded in the source text; docs/design.md, "Section 4 chain",
 * documents the re-derivations. These tests validate the re-derived
 * model against the paper's Table 3b within a modelling band and
 * against the paper's own accuracy claim relative to simulation
 * (Table 3a).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analytic/procprio.hh"

namespace sbn {
namespace {

// Paper Table 3b: approximate model, priority to processors, n = 8.
// Rows m = 4..16 step 2; columns r = 2..12 step 2. (The m=6, r=8
// entry is printed as 2.854 in the scan, an evident typo for 3.854
// between 3.582 and 3.973.)
constexpr int kMs[7] = {4, 6, 8, 10, 12, 14, 16};
constexpr int kRs[6] = {2, 4, 6, 8, 10, 12};
constexpr double kTable3b[7][6] = {
    {1.994, 2.727, 2.992, 3.089, 3.133, 3.156},
    {1.999, 2.956, 3.582, 3.854, 3.973, 4.033},
    {2.000, 2.994, 3.848, 4.344, 4.577, 4.692},
    {2.000, 2.999, 3.947, 4.633, 5.000, 5.184},
    {2.000, 2.999, 3.981, 4.794, 5.288, 5.546},
    {2.000, 3.000, 3.992, 4.880, 5.480, 5.810},
    {2.000, 3.000, 3.997, 4.927, 5.608, 6.000},
};

// Paper Table 3a (simulation ground truth) for the same grid.
constexpr double kTable3a[7][6] = {
    {1.998, 2.867, 3.155, 3.287, 3.205, 3.220},
    {2.000, 2.986, 3.766, 4.033, 4.083, 4.117},
    {2.000, 2.999, 3.934, 4.523, 4.650, 4.722},
    {2.000, 3.000, 3.983, 4.766, 5.102, 5.144},
    {2.000, 3.000, 3.996, 4.878, 5.367, 5.464},
    {2.000, 3.000, 4.000, 4.947, 5.569, 5.732},
    {2.000, 3.000, 4.000, 4.977, 5.698, 5.959},
};

TEST(ProcPrioChain, TracksTable3bWithinModellingBand)
{
    // Exact equality with the printed table is not expected (the
    // paper's own P2/P1 formulas are OCR-mangled and re-derived); the
    // re-derived chain stays within 9.5% of the printed values over
    // the whole grid -- the worst cells are the m=4 tail, where the
    // printed model itself deviates 5-7% from the paper's own
    // simulation in the opposite direction (see kTable3a).
    double mean_rel = 0.0;
    for (int i = 0; i < 7; ++i) {
        for (int j = 0; j < 6; ++j) {
            ProcPrioChain chain(8, kMs[i], kRs[j]);
            const double rel =
                std::abs(chain.ebw() - kTable3b[i][j]) / kTable3b[i][j];
            mean_rel += rel;
            EXPECT_LT(rel, 0.095)
                << "m=" << kMs[i] << " r=" << kRs[j]
                << " ours=" << chain.ebw();
        }
    }
    // And the grid as a whole is much closer than the worst cell.
    EXPECT_LT(mean_rel / 42.0, 0.04);
}

TEST(ProcPrioChain, MatchesSimulationWithinPaperAccuracyClaim)
{
    // Section 5 claims the approximate chain stays within ~5% of
    // simulation "in almost any case"; hold the re-derived chain to
    // 7% against the paper's Table 3a everywhere (the paper's own
    // printed model deviates up to ~7% from 3a at small m too, in
    // the opposite direction).
    for (int i = 0; i < 7; ++i) {
        for (int j = 0; j < 6; ++j) {
            ProcPrioChain chain(8, kMs[i], kRs[j]);
            const double rel =
                std::abs(chain.ebw() - kTable3a[i][j]) / kTable3a[i][j];
            EXPECT_LT(rel, 0.07)
                << "m=" << kMs[i] << " r=" << kRs[j]
                << " ours=" << chain.ebw();
        }
    }
}

TEST(ProcPrioChain, SaturatedCellsAreExact)
{
    // Wherever the bus saturates (EBW == (r+2)/2) the lumping is
    // immaterial: the chain reproduces those Table 3b cells to the
    // printed precision (all the 2.000/3.000/4.000 cells).
    for (int i = 0; i < 7; ++i) {
        for (int j = 0; j < 6; ++j) {
            const double max_ebw = (kRs[j] + 2) / 2.0;
            if (kTable3b[i][j] < max_ebw - 5e-3)
                continue;
            ProcPrioChain chain(8, kMs[i], kRs[j]);
            EXPECT_NEAR(chain.ebw(), kTable3b[i][j], 2e-2)
                << "m=" << kMs[i] << " r=" << kRs[j];
        }
    }
}

TEST(ProcPrioChain, BusUtilizationIsAProbability)
{
    for (int m : {2, 4, 16}) {
        for (int r : {1, 3, 9}) {
            ProcPrioChain chain(6, m, r);
            EXPECT_GE(chain.busUtilization(), 0.0);
            EXPECT_LE(chain.busUtilization(), 1.0 + 1e-12);
            EXPECT_NEAR(chain.ebw(),
                        chain.busUtilization() * (r + 2) / 2.0, 1e-12);
        }
    }
}

TEST(ProcPrioChain, StationaryLawIsNormalized)
{
    ProcPrioChain chain(8, 8, 6);
    double total = 0.0;
    for (double v : chain.stationary())
        total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_EQ(chain.stationary().size(), chain.numStates());
}

TEST(ProcPrioChain, StateSpaceScalesLikePaperFormula)
{
    // Paper: S = (3v^2+3v-2)/2 for r > min(n, m), v = min(n, m). Our
    // reachable enumeration equals it from r = v up; below, at most r
    // modules can be mid-access and states drop out (docs/design.md,
    // "Reachable states").
    for (int v : {2, 3, 4, 6, 8}) {
        const auto paper = ProcPrioChain::paperStateCount(v, v);
        EXPECT_EQ(ProcPrioChain(v, v, v + 5).numStates(), paper)
            << "v=" << v;
        EXPECT_EQ(ProcPrioChain(v, v, v).numStates(), paper) << "v=" << v;
        EXPECT_EQ(ProcPrioChain(v, v, v - 1).numStates(), paper - 1)
            << "v=" << v;
    }
    EXPECT_EQ(ProcPrioChain(8, 8, 4).numStates(), 85u);
    // Only min(n, m) matters.
    EXPECT_EQ(ProcPrioChain(8, 16, 20).numStates(), 107u);
    EXPECT_EQ(ProcPrioChain(16, 8, 20).numStates(), 107u);
}

TEST(ProcPrioChain, StateConstraintsHold)
{
    const int n = 6, m = 4, r = 3;
    ProcPrioChain chain(n, m, r);
    for (const auto &s : chain.states()) {
        EXPECT_GE(s.i, 0);
        EXPECT_LE(s.i, std::min({n, m, r}));
        EXPECT_GE(s.c, 1);
        EXPECT_LE(s.c, std::min(n, m));
        EXPECT_GE(s.e, 0);
        switch (s.b) {
          case 2:
            EXPECT_EQ(s.e, 0);
            EXPECT_EQ(s.i, s.c);
            break;
          case 0:
            EXPECT_EQ(1 + s.i + s.e, s.c);
            break;
          case 1:
            EXPECT_LE(1 + s.i + s.e, s.c);
            break;
          default:
            FAIL() << "invalid bus code " << s.b;
        }
    }
}

TEST(ProcPrioChain, SingleProcessorIsUncontended)
{
    // n=1: no interference; EBW must be exactly 1 request per
    // processor cycle (bus utilization 2/(r+2)).
    for (int r : {1, 2, 8}) {
        ProcPrioChain chain(1, 4, r);
        EXPECT_NEAR(chain.ebw(), 1.0, 1e-9) << "r=" << r;
    }
}

TEST(ProcPrioChain, EbwMonotoneInModules)
{
    double prev = 0.0;
    for (int m : {2, 4, 8, 12, 16}) {
        ProcPrioChain chain(8, m, 8);
        EXPECT_GE(chain.ebw(), prev - 1e-9) << "m=" << m;
        prev = chain.ebw();
    }
}

TEST(ProcPrioChainDeath, LiteralClass3ReadingIsStructurallyBroken)
{
    // The literally printed class-3 completion target (i,c,e,0)
    // creates b=0 states with 1+i+e < c, violating the paper's own
    // four-class enumeration; the resulting chain is reducible and
    // the solver rejects it. This is the executable form of the
    // docs/design.md argument for the (i,c,e+1,1) re-derivation.
    ProcPrioChain::Options literal;
    literal.literal_class3 = true;
    EXPECT_DEATH({ ProcPrioChain chain(8, 4, 2, literal); },
                 "singular|reducible");
}

TEST(ProcPrioChain, ConstantP1VariantIsFarWorse)
{
    // Documents the OCR resolution: reading P1 as 1/r (instead of
    // i/r) collapses the predicted EBW to nonsense; the validation
    // against Table 3b selects i/r.
    ProcPrioChain::Options constant;
    constant.constant_p1 = true;
    ProcPrioChain good(8, 16, 12);
    ProcPrioChain bad(8, 16, 12, constant);
    EXPECT_NEAR(good.ebw(), 6.0, 0.35);
    EXPECT_LT(bad.ebw(), 2.0);
}

} // namespace
} // namespace sbn
