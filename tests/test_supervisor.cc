/**
 * @file
 * Process-free unit tests of the ShardSupervisor's policy: the
 * capped-exponential retry schedule, a pure function of
 * configuration, and the PointClaim protocol that splits a task's
 * unstarted points off to a thief, raced here between threads
 * instead of processes. The end-to-end supervision behavior
 * (respawn, hang kill, split, rescue, exhaustion) is covered by
 * tests/test_fault.cc with real processes.
 */

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "shard/supervisor.hh"

namespace sbn {
namespace {

TEST(SupervisorBackoff, DefaultScheduleDoublesToTheCap)
{
    // Initial 0.25 s by default, growth 2, cap 5 s. Failure k waits
    // min(5, 0.25 * 2^(k-1)).
    const SupervisorConfig config;
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 1), 0.25);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 2), 0.5);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 3), 1.0);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 4), 2.0);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 5), 4.0);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 6), 5.0);
    // Once capped, it stays capped - no overflow or re-growth.
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 7), 5.0);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 50), 5.0);
}

TEST(SupervisorBackoff, HonorsCustomInitialGrowthAndCap)
{
    // A custom initial delay (--backoff) grows by the fixed factor
    // and stops at the fixed cap.
    SupervisorConfig config;
    config.backoffInitialSeconds = 0.02;
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 1), 0.02);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 2), 0.04);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 3), 0.08);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 8), 2.56);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 9), 5.0);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 10), 5.0);
}

TEST(SupervisorBackoff, ZeroInitialMeansImmediateRetries)
{
    // --backoff=0 is the test-suite configuration: every retry is
    // immediate regardless of how many failures have accumulated.
    SupervisorConfig config;
    config.backoffInitialSeconds = 0.0;
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 1), 0.0);
    EXPECT_DOUBLE_EQ(supervisorBackoffSeconds(config, 10), 0.0);
}

TEST(PointClaim, AcceptsBelowEndRefusesAtEndAndNeverLowersNext)
{
    PointClaim claim(10);
    EXPECT_EQ(claim.next(), 0u);
    EXPECT_EQ(claim.end(), 10u);
    EXPECT_TRUE(claim.claim(3));
    EXPECT_EQ(claim.next(), 4u);
    // Another thread of the worker may claim a lower index later.
    EXPECT_TRUE(claim.claim(1));
    EXPECT_EQ(claim.next(), 4u);
    EXPECT_TRUE(claim.claim(9));
    EXPECT_EQ(claim.next(), 10u);
    EXPECT_FALSE(claim.claim(10));
    EXPECT_FALSE(claim.claim(11));
    EXPECT_EQ(claim.next(), 10u);
    EXPECT_EQ(claim.end(), 10u);
}

TEST(PointClaim, SplitRefusesFewerThanTwoUnstartedPoints)
{
    const std::vector<std::size_t> list{4, 5, 6};
    PointClaim claim(7);
    ASSERT_TRUE(claim.claim(5));
    EXPECT_EQ(claim.unstarted(list), 1u);
    EXPECT_TRUE(claim.split(list).empty());
    EXPECT_EQ(claim.end(), 7u);

    PointClaim none(0);
    EXPECT_TRUE(none.split({}).empty());
}

TEST(PointClaim, SplitGivesTheThiefTheUpperHalf)
{
    for (std::size_t k = 2; k <= 9; ++k) {
        // Point 10 is started; 11 .. 10 + k are not.
        std::vector<std::size_t> list(k + 1);
        std::iota(list.begin(), list.end(), std::size_t{10});
        PointClaim claim(list.back() + 1);
        ASSERT_TRUE(claim.claim(10));
        ASSERT_EQ(claim.unstarted(list), k);

        const std::vector<std::size_t> thief = claim.split(list);
        ASSERT_EQ(thief.size(), k / 2) << k;
        EXPECT_EQ(claim.unstarted(list), (k + 1) / 2) << k;
        EXPECT_EQ(thief.front(), claim.end()) << k;
        EXPECT_EQ(thief.back(), list.back()) << k;
        EXPECT_EQ(claim.next(), 11u) << k;
    }
}

TEST(PointClaim, SplitNeverSetsEndBelowNext)
{
    const std::vector<std::size_t> list{0, 1, 2, 3};
    PointClaim claim(4);
    ASSERT_TRUE(claim.claim(1));
    EXPECT_EQ(claim.split(list), (std::vector<std::size_t>{3}));
    EXPECT_EQ(claim.next(), 2u);
    EXPECT_EQ(claim.end(), 3u);
    // Only point 2 is unstarted now, and it stays with the victim.
    EXPECT_TRUE(claim.split(list).empty());
    EXPECT_TRUE(claim.claim(2));
    EXPECT_FALSE(claim.claim(3));
    EXPECT_EQ(claim.next(), claim.end());
    EXPECT_TRUE(claim.split(list).empty());
}

TEST(PointClaim, SplitWorksOnStridedLists)
{
    // Shard 1 of 4 over 20 points, strided: 1, 5, 9, 13, 17.
    const std::vector<std::size_t> list =
        ShardPlan(20, 4, ShardLayout::Strided).indices(1);
    PointClaim claim(list.back() + 1);
    ASSERT_TRUE(claim.claim(1));
    const std::vector<std::size_t> thief = claim.split(list);
    EXPECT_EQ(thief, (std::vector<std::size_t>{13, 17}));
    EXPECT_EQ(claim.end(), 13u);
    EXPECT_TRUE(claim.claim(9));
    EXPECT_FALSE(claim.claim(13));

    // A thief's word covers its own list and splits the same way.
    PointClaim second(thief.back() + 1);
    EXPECT_EQ(second.split(thief), (std::vector<std::size_t>{17}));
    EXPECT_TRUE(second.claim(13));
    EXPECT_FALSE(second.claim(17));
}

TEST(PointClaim, ConcurrentClaimsAndSplitsClaimEveryIndexOnce)
{
    // Four threads drain the tasks in order, claiming each task's
    // list in increasing order through a shared cursor, as a worker's
    // threads do. A fifth keeps splitting the task with the most
    // unstarted points; the drainers then drain the thieves. All five
    // start together, or the first drainer would finish alone.
    constexpr std::size_t kPoints = 64;
    constexpr std::size_t kMaxTasks = 16;
    std::size_t splits = 0;
    for (int round = 0; round < 1000; ++round) {
        std::vector<std::size_t> lists[kMaxTasks];
        std::unique_ptr<PointClaim> claims[kMaxTasks];
        std::atomic<std::size_t> cursors[kMaxTasks];
        std::atomic<int> claimed[kPoints];
        for (auto &cursor : cursors)
            cursor.store(0);
        for (auto &count : claimed)
            count.store(0);
        lists[0].resize(kPoints);
        std::iota(lists[0].begin(), lists[0].end(), std::size_t{0});
        claims[0] = std::make_unique<PointClaim>(kPoints);
        std::atomic<std::size_t> published{1};
        std::atomic<bool> splitterDone{false};

        std::atomic<int> ready{0};
        const auto start = [&ready] {
            ready.fetch_add(1);
            while (ready.load() < 5)
                std::this_thread::yield();
        };
        const auto drain = [&] {
            start();
            for (std::size_t t = 0;;) {
                if (t == published.load()) {
                    if (splitterDone.load() && t == published.load())
                        return;
                    std::this_thread::yield();
                    continue;
                }
                for (std::size_t k;
                     (k = cursors[t].fetch_add(1)) < lists[t].size();)
                    if (claims[t]->claim(lists[t][k]))
                        claimed[lists[t][k]].fetch_add(1);
                ++t;
            }
        };
        const auto split = [&] {
            start();
            for (std::size_t n = 1; n < kMaxTasks;) {
                std::size_t victim = 0;
                std::size_t most = 0;
                for (std::size_t t = 0; t < n; ++t) {
                    const std::size_t unstarted =
                        claims[t]->unstarted(lists[t]);
                    if (unstarted > most) {
                        most = unstarted;
                        victim = t;
                    }
                }
                if (most < 2)
                    break;
                std::vector<std::size_t> thief =
                    claims[victim]->split(lists[victim]);
                if (thief.empty())
                    continue; // the drainers started them meanwhile
                claims[n] = std::make_unique<PointClaim>(thief.back() + 1);
                lists[n] = std::move(thief);
                published.store(++n);
            }
            splitterDone.store(true);
        };

        std::vector<std::thread> threads;
        for (int i = 0; i < 4; ++i)
            threads.emplace_back(drain);
        threads.emplace_back(split);
        for (std::thread &thread : threads)
            thread.join();

        splits += published.load() - 1;
        for (std::size_t i = 0; i < kPoints; ++i)
            ASSERT_EQ(claimed[i].load(), 1)
                << "index " << i << ", round " << round << ", "
                << published.load() << " task(s)";
    }
    EXPECT_GT(splits, 0u);
}

} // namespace
} // namespace sbn
