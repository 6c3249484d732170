/**
 * @file
 * Compile-time check of the umbrella header: sbn.hh must be
 * self-contained and expose the whole public API.
 */

#include "sbn.hh"

#include <gtest/gtest.h>

namespace sbn {
namespace {

/**
 * Death tests must use the fork+exec ("threadsafe") style binary-wide:
 * several suites keep process-lifetime worker pools alive
 * (sharedParallelRunner), and a plain fork() from a multi-threaded
 * process deadlocks the child on whatever glibc lock a pool thread
 * held at fork time. ctest runs each test in its own process, but a
 * combined ./sbn_tests invocation must not hang either.
 *
 * The flag is set from a test Environment (SetUp runs after gtest's
 * own dynamic initialization and flag parsing, before the first
 * test), not from a namespace-scope assignment - cross-TU static
 * init order against gtest's flag object is unspecified, and losing
 * that race would silently revert to the deadlock-prone "fast"
 * style. The style is forced unconditionally; there is no safe
 * reason to run this binary's death tests in "fast" style.
 */
class ThreadsafeDeathTestStyle : public ::testing::Environment
{
  public:
    void
    SetUp() override
    {
        ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    }
};

const ::testing::Environment *const g_threadsafe_death_tests =
    ::testing::AddGlobalTestEnvironment(new ThreadsafeDeathTestStyle);

TEST(Umbrella, ExposesEndToEndWorkflow)
{
    // Touch one symbol from each library layer through sbn.hh only.
    SystemConfig cfg;
    cfg.numProcessors = 2;
    cfg.numModules = 2;
    cfg.memoryRatio = 2;
    cfg.warmupCycles = 10;
    cfg.measureCycles = 2000;

    const Metrics metrics = runOnce(cfg);
    EXPECT_GT(metrics.ebw, 0.0);

    EXPECT_NEAR(crossbarExactBandwidth(2, 2), 1.5, 1e-12);
    EXPECT_GT(memprioApproxEbw(2, 2, 2), 1.0);
    EXPECT_GT(mvaBufferedBus(2, 2, 2).ebw, 0.0);
    EXPECT_GT(mvaBufferedBusDeterministic(2, 2, 2).ebw, 0.0);
    EXPECT_DOUBLE_EQ(binomial(4, 2), 6.0);

    RandomGenerator rng(1);
    EXPECT_LT(rng.uniformInt(8), 8u);

    Accumulator acc;
    acc.add(1.0);
    EXPECT_EQ(acc.count(), 1u);

    // shard/: plan + record layers reachable through the umbrella.
    const ShardPlan plan(4, 2, ShardLayout::Strided);
    EXPECT_EQ(plan.indices(1), (std::vector<std::size_t>{1, 3}));
    const PointRecord record =
        makeSweepRecord(0, cfg, PointSample{metrics.ebw, false, {}});
    EXPECT_EQ(record.configFp, configFingerprint(cfg));
    PointRecord parsed;
    std::string error;
    ASSERT_TRUE(parseRecord(formatRecord(record), parsed, error));
    EXPECT_TRUE(parsed.bitIdentical(record));
}

} // namespace
} // namespace sbn
