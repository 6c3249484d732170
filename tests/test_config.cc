/**
 * @file
 * Configuration-validation tests: every invalid parameter must be
 * rejected loudly (fatal) before a simulation starts, and the
 * documented defaults must describe a valid paper-baseline system.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/config.hh"
#include "core/experiment.hh"

namespace sbn {
namespace {

SystemConfig
valid()
{
    SystemConfig cfg; // defaults are the paper's 8x8 style baseline
    return cfg;
}

TEST(ConfigValidation, DefaultsAreValid)
{
    SystemConfig cfg = valid();
    cfg.validate(); // must not exit
    EXPECT_EQ(cfg.processorCycle(), cfg.memoryRatio + 2);
    EXPECT_DOUBLE_EQ(cfg.maxEbw(), (cfg.memoryRatio + 2) / 2.0);
}

TEST(ConfigValidationDeath, RejectsNonPositiveProcessors)
{
    SystemConfig cfg = valid();
    cfg.numProcessors = 0;
    EXPECT_DEATH(cfg.validate(), "numProcessors");
}

TEST(ConfigValidationDeath, RejectsNonPositiveModules)
{
    SystemConfig cfg = valid();
    cfg.numModules = -1;
    EXPECT_DEATH(cfg.validate(), "numModules");
}

TEST(ConfigValidationDeath, RejectsZeroMemoryRatio)
{
    SystemConfig cfg = valid();
    cfg.memoryRatio = 0;
    EXPECT_DEATH(cfg.validate(), "memoryRatio");
}

TEST(ConfigValidationDeath, RejectsProbabilityOutOfRange)
{
    SystemConfig low = valid();
    low.requestProbability = -0.1;
    EXPECT_DEATH(low.validate(), "requestProbability");

    SystemConfig high = valid();
    high.requestProbability = 1.5;
    EXPECT_DEATH(high.validate(), "requestProbability");
}

TEST(ConfigValidationDeath, RejectsNegativeCapacities)
{
    SystemConfig cfg = valid();
    cfg.buffered = true;
    cfg.inputCapacity = -2;
    EXPECT_DEATH(cfg.validate(), "capacities");
}

TEST(ConfigValidationDeath, RejectsCapacitiesWithoutBuffering)
{
    SystemConfig cfg = valid();
    cfg.buffered = false;
    cfg.inputCapacity = 2;
    EXPECT_DEATH(cfg.validate(), "buffered");
}

TEST(ConfigValidationDeath, RejectsWeightVectorSizeMismatch)
{
    SystemConfig cfg = valid();
    cfg.workload.pattern = ReferencePattern::Weighted;
    cfg.workload.moduleWeights = {1.0, 2.0}; // != numModules
    EXPECT_DEATH(cfg.validate(), "moduleWeights");
}

TEST(ConfigValidationDeath, RejectsNonPositiveWeights)
{
    SystemConfig cfg = valid();
    cfg.workload.pattern = ReferencePattern::Weighted;
    cfg.workload.moduleWeights.assign(cfg.numModules, 1.0);
    cfg.workload.moduleWeights[3] = 0.0;
    EXPECT_DEATH(cfg.validate(), "moduleWeights");
}

TEST(ConfigValidationDeath, RejectsHotSpotOutOfRange)
{
    SystemConfig cfg = valid();
    cfg.workload.pattern = ReferencePattern::HotSpot;
    cfg.workload.hotFraction = 1.5;
    EXPECT_DEATH(cfg.validate(), "hotFraction");

    cfg = valid();
    cfg.workload.pattern = ReferencePattern::HotSpot;
    cfg.workload.hotModule = cfg.numModules;
    EXPECT_DEATH(cfg.validate(), "hotModule");
}

TEST(ConfigValidationDeath, RejectsThinkVectorMismatch)
{
    SystemConfig cfg = valid();
    cfg.workload.think = ThinkModel::PerProcessor;
    cfg.workload.thinkProbabilities = {0.5}; // != numProcessors
    EXPECT_DEATH(cfg.validate(), "thinkProbabilities");

    cfg = valid();
    cfg.workload.think = ThinkModel::TwoClass;
    cfg.workload.fastCount = cfg.numProcessors + 1;
    EXPECT_DEATH(cfg.validate(), "fastCount");
}

TEST(ConfigValidationDeath, RejectsEmptyMeasurementWindow)
{
    SystemConfig cfg = valid();
    cfg.measureCycles = 0;
    EXPECT_DEATH(cfg.validate(), "measureCycles");
}

TEST(ConfigValidationDeath, RejectsWindowPastTickRange)
{
    // The window ends at warmup + measure; past the Tick range that
    // sum wraps and no tick would ever be measured.
    SystemConfig cfg = valid();
    cfg.warmupCycles = std::numeric_limits<Tick>::max() - cfg.measureCycles;
    cfg.validate(); // ends exactly at the last tick: still valid
    cfg.warmupCycles += 1;
    EXPECT_DEATH(cfg.validate(), "overflows the tick range");
}

TEST(ConfigValidation, ValidWeightsAccepted)
{
    SystemConfig cfg = valid();
    cfg.workload.pattern = ReferencePattern::Weighted;
    cfg.workload.moduleWeights.assign(cfg.numModules, 1.0);
    cfg.workload.moduleWeights[0] = 7.5;
    cfg.validate();
    // And the system actually runs with them.
    cfg.measureCycles = 5000;
    cfg.warmupCycles = 100;
    EXPECT_GT(runEbw(cfg), 0.0);
}

TEST(ConfigValidation, ConstructingSystemValidates)
{
    SystemConfig cfg = valid();
    cfg.memoryRatio = -3;
    EXPECT_DEATH({ SingleBusSystem system(cfg); }, "memoryRatio");
}

} // namespace
} // namespace sbn
