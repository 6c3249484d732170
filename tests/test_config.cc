/**
 * @file
 * Configuration-validation tests: every invalid parameter must be
 * rejected with a message naming it before a simulation starts (a
 * kernel constructor dies on it), and the documented defaults must
 * describe a valid paper-baseline system.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/config.hh"
#include "core/experiment.hh"
#include "error_match.hh"

namespace sbn {
namespace {

SystemConfig
valid()
{
    SystemConfig cfg; // defaults are the paper's 8x8 style baseline
    return cfg;
}

/** The message validate() rejects @p cfg with, or "" when it
 *  accepts. */
std::string
rejection(const SystemConfig &cfg)
{
    std::string error;
    return cfg.validate(error) ? "" : error;
}

TEST(ConfigValidation, DefaultsAreValid)
{
    SystemConfig cfg = valid();
    EXPECT_EQ(rejection(cfg), "");
    EXPECT_EQ(cfg.processorCycle(), cfg.memoryRatio + 2);
    EXPECT_DOUBLE_EQ(cfg.maxEbw(), (cfg.memoryRatio + 2) / 2.0);
}

TEST(ConfigValidationDeath, RejectsNonPositiveProcessors)
{
    SystemConfig cfg = valid();
    cfg.numProcessors = 0;
    EXPECT_TRUE(errorMatches(rejection(cfg), "numProcessors"));
}

TEST(ConfigValidationDeath, RejectsNonPositiveModules)
{
    SystemConfig cfg = valid();
    cfg.numModules = -1;
    EXPECT_TRUE(errorMatches(rejection(cfg), "numModules"));
}

TEST(ConfigValidationDeath, RejectsZeroMemoryRatio)
{
    SystemConfig cfg = valid();
    cfg.memoryRatio = 0;
    EXPECT_TRUE(errorMatches(rejection(cfg), "memoryRatio"));
}

TEST(ConfigValidationDeath, RejectsProbabilityOutOfRange)
{
    SystemConfig low = valid();
    low.requestProbability = -0.1;
    EXPECT_TRUE(errorMatches(rejection(low), "requestProbability"));

    SystemConfig high = valid();
    high.requestProbability = 1.5;
    EXPECT_TRUE(errorMatches(rejection(high), "requestProbability"));

    SystemConfig nan = valid();
    nan.requestProbability = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(errorMatches(rejection(nan), "requestProbability"));
}

TEST(ConfigValidationDeath, RejectsNegativeCapacities)
{
    SystemConfig cfg = valid();
    cfg.buffered = true;
    cfg.inputCapacity = -2;
    EXPECT_TRUE(errorMatches(rejection(cfg), "capacities"));
}

TEST(ConfigValidationDeath, RejectsCapacitiesWithoutBuffering)
{
    SystemConfig cfg = valid();
    cfg.buffered = false;
    cfg.inputCapacity = 2;
    EXPECT_TRUE(errorMatches(rejection(cfg), "buffered"));
}

TEST(ConfigValidationDeath, RejectsWeightVectorSizeMismatch)
{
    SystemConfig cfg = valid();
    cfg.workload.pattern = ReferencePattern::Weighted;
    cfg.workload.moduleWeights = {1.0, 2.0}; // != numModules
    EXPECT_TRUE(errorMatches(rejection(cfg), "moduleWeights"));
}

TEST(ConfigValidationDeath, RejectsNonPositiveWeights)
{
    SystemConfig cfg = valid();
    cfg.workload.pattern = ReferencePattern::Weighted;
    cfg.workload.moduleWeights.assign(cfg.numModules, 1.0);
    cfg.workload.moduleWeights[3] = 0.0;
    EXPECT_TRUE(errorMatches(rejection(cfg), "moduleWeights"));
}

TEST(ConfigValidationDeath, RejectsHotSpotOutOfRange)
{
    SystemConfig cfg = valid();
    cfg.workload.pattern = ReferencePattern::HotSpot;
    cfg.workload.hotFraction = 1.5;
    EXPECT_TRUE(errorMatches(rejection(cfg), "hotFraction"));

    cfg = valid();
    cfg.workload.pattern = ReferencePattern::HotSpot;
    cfg.workload.hotModule = cfg.numModules;
    EXPECT_TRUE(errorMatches(rejection(cfg), "hotModule"));
}

TEST(ConfigValidationDeath, RejectsThinkVectorMismatch)
{
    SystemConfig cfg = valid();
    cfg.workload.think = ThinkModel::PerProcessor;
    cfg.workload.thinkProbabilities = {0.5}; // != numProcessors
    EXPECT_TRUE(errorMatches(rejection(cfg), "thinkProbabilities"));

    cfg = valid();
    cfg.workload.think = ThinkModel::TwoClass;
    cfg.workload.fastCount = cfg.numProcessors + 1;
    EXPECT_TRUE(errorMatches(rejection(cfg), "fastCount"));
}

TEST(ConfigValidationDeath, RejectsEmptyMeasurementWindow)
{
    SystemConfig cfg = valid();
    cfg.measureCycles = 0;
    EXPECT_TRUE(errorMatches(rejection(cfg), "measureCycles"));
}

TEST(ConfigValidationDeath, RejectsWindowPastTickRange)
{
    // The window ends at warmup + measure; past the Tick range that
    // sum wraps and no tick would ever be measured.
    SystemConfig cfg = valid();
    cfg.warmupCycles = std::numeric_limits<Tick>::max() - cfg.measureCycles;
    EXPECT_EQ(rejection(cfg), ""); // ends exactly at the last tick
    cfg.warmupCycles += 1;
    EXPECT_TRUE(errorMatches(rejection(cfg), "overflows the tick range"));
}

TEST(ConfigValidation, ValidWeightsAccepted)
{
    SystemConfig cfg = valid();
    cfg.workload.pattern = ReferencePattern::Weighted;
    cfg.workload.moduleWeights.assign(cfg.numModules, 1.0);
    cfg.workload.moduleWeights[0] = 7.5;
    EXPECT_EQ(rejection(cfg), "");
    // And the system actually runs with them.
    cfg.measureCycles = 5000;
    cfg.warmupCycles = 100;
    EXPECT_GT(runEbw(cfg), 0.0);
}

TEST(ConfigValidation, ConstructingSystemValidates)
{
    // The fatal path every kernel constructor takes on a rejection.
    SystemConfig cfg = valid();
    cfg.memoryRatio = -3;
    EXPECT_DEATH({ SingleBusSystem system(cfg); }, "memoryRatio");
}

} // namespace
} // namespace sbn
