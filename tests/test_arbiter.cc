/**
 * @file
 * Unit tests of the bus arbiter, the completion ring and the processor
 * queues both kernels share (core/arbiter.hh). The golden pins check
 * the grant rule end to end through each kernel; these pin each part
 * of it on its own.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/arbiter.hh"
#include "util/random.hh"

namespace sbn {
namespace {

SystemConfig
shape(int n, int m, ArbitrationPolicy policy, SelectionRule selection)
{
    SystemConfig cfg;
    cfg.numProcessors = n;
    cfg.numModules = m;
    cfg.policy = policy;
    cfg.selection = selection;
    return cfg;
}

std::vector<int>
members(const IndexSet &set)
{
    std::vector<int> out;
    set.forEach([&](std::size_t i) { out.push_back(static_cast<int>(i)); });
    return out;
}

std::size_t
noPick(std::size_t)
{
    ADD_FAILURE() << "OldestFirst drew a random pick";
    return 0;
}

Tick
noKey(int)
{
    ADD_FAILURE() << "Random asked for an OldestFirst key";
    return 0;
}

/** Processor 1 waits on the accepting module 0; module 1 holds a
 *  response. */
BusArbiter
bothClassesCompeting(ArbitrationPolicy policy, SelectionRule selection)
{
    BusArbiter arbiter(shape(4, 2, policy, selection));
    arbiter.waiting(1, 0);
    arbiter.setAccept(1, false);
    arbiter.setResponse(1, true);
    return arbiter;
}

TEST(BusArbiter, PolicyPicksTheClassWhenBothCompete)
{
    for (const SelectionRule selection :
         {SelectionRule::Random, SelectionRule::OldestFirst}) {
        auto pick = [](std::size_t) -> std::size_t { return 0; };
        auto key = [](int) -> Tick { return 0; };
        const BusArbiter::Choice procs_first =
            bothClassesCompeting(ArbitrationPolicy::ProcessorPriority,
                                 selection)
                .select(pick, key, key);
        EXPECT_EQ(procs_first.proc, 1);
        EXPECT_EQ(procs_first.module, -1);
        const BusArbiter::Choice memory_first =
            bothClassesCompeting(ArbitrationPolicy::MemoryPriority,
                                 selection)
                .select(pick, key, key);
        EXPECT_EQ(memory_first.proc, -1);
        EXPECT_EQ(memory_first.module, 1);
    }
}

TEST(BusArbiter, EitherPolicyGrantsTheOnlyClassThatWaits)
{
    auto key = [](int) -> Tick { return 0; };
    BusArbiter memory_first(shape(3, 2, ArbitrationPolicy::MemoryPriority,
                                  SelectionRule::OldestFirst));
    EXPECT_FALSE(memory_first.hasCandidates());
    BusArbiter::Choice none = memory_first.select(noPick, key, key);
    EXPECT_EQ(none.proc, -1);
    EXPECT_EQ(none.module, -1);
    memory_first.waiting(2, 1);
    EXPECT_EQ(memory_first.select(noPick, key, key).proc, 2);

    BusArbiter procs_first(shape(3, 2,
                                 ArbitrationPolicy::ProcessorPriority,
                                 SelectionRule::OldestFirst));
    procs_first.setResponse(0, true);
    const BusArbiter::Choice response = procs_first.select(noPick, key, key);
    EXPECT_EQ(response.proc, -1);
    EXPECT_EQ(response.module, 0);
}

TEST(BusArbiter, OldestFirstTakesTheSmallestKeyAndTheLowestIndexOnATie)
{
    // Processors: issue ticks with a three-way tie at 4.
    BusArbiter procs(shape(6, 1, ArbitrationPolicy::ProcessorPriority,
                           SelectionRule::OldestFirst));
    const std::vector<Tick> issued = {9, 4, 7, 4, 5, 4};
    for (int p = 0; p < 6; ++p)
        procs.waiting(p, 0);
    auto issue_key = [&](int p) {
        return issued[static_cast<std::size_t>(p)];
    };
    for (const int expected : {1, 3, 5, 4, 2, 0}) {
        const int chosen = procs.select(noPick, issue_key, noKey).proc;
        EXPECT_EQ(chosen, expected);
        procs.granted(chosen, 0);
    }
    EXPECT_FALSE(procs.hasCandidates());

    // Modules: response ready ticks with a tie at 3.
    BusArbiter modules(shape(1, 5, ArbitrationPolicy::MemoryPriority,
                             SelectionRule::OldestFirst));
    const std::vector<Tick> ready = {8, 3, 6, 3, 2};
    for (int j = 0; j < 5; ++j)
        modules.setResponse(j, true);
    auto ready_key = [&](int j) {
        return ready[static_cast<std::size_t>(j)];
    };
    for (const int expected : {4, 1, 3, 2, 0}) {
        const int chosen = modules.select(noPick, noKey, ready_key).module;
        EXPECT_EQ(chosen, expected);
        modules.setResponse(chosen, false);
    }
}

TEST(BusArbiter, RandomTakesThePickedMemberInAscendingIndexOrder)
{
    // Members span two 64-bit words of the candidate set.
    BusArbiter arbiter(shape(70, 3, ArbitrationPolicy::ProcessorPriority,
                             SelectionRule::Random));
    const std::vector<int> waiting = {2, 5, 63, 64, 69};
    for (const int p : waiting)
        arbiter.waiting(p, p % 3);
    for (std::size_t k = 0; k < waiting.size(); ++k) {
        std::vector<std::size_t> counts;
        auto pick = [&](std::size_t count) {
            counts.push_back(count);
            return k;
        };
        EXPECT_EQ(arbiter.select(pick, noKey, noKey).proc, waiting[k]);
        EXPECT_EQ(counts, std::vector<std::size_t>{waiting.size()});
    }

    // The pick sees the winning class's count, never an empty class.
    BusArbiter modules(shape(70, 3, ArbitrationPolicy::ProcessorPriority,
                             SelectionRule::Random));
    std::vector<std::size_t> counts;
    auto record = [&](std::size_t count) {
        counts.push_back(count);
        return count - 1;
    };
    EXPECT_EQ(modules.select(record, noKey, noKey).module, -1);
    modules.setResponse(0, true);
    modules.setResponse(2, true);
    EXPECT_EQ(modules.select(record, noKey, noKey).module, 2);
    modules.setResponse(2, false);
    EXPECT_EQ(modules.select(record, noKey, noKey).module, 0);
    EXPECT_EQ(counts, (std::vector<std::size_t>{2, 1}));
}

TEST(BusArbiter, CandidateInvariantHoldsThroughAScriptedSequence)
{
    constexpr int kModules = 3;
    BusArbiter arbiter(shape(5, kModules,
                             ArbitrationPolicy::ProcessorPriority,
                             SelectionRule::Random));
    // The model: who waits on which module, and each module's flags.
    std::map<int, int> waits_on;
    bool accept[kModules] = {true, true, true};
    bool response[kModules] = {false, false, false};
    int step = 0;
    auto check = [&] {
        SCOPED_TRACE("after step " + std::to_string(step++));
        std::vector<int> procs;
        for (const auto &[proc, module] : waits_on)
            if (accept[module])
                procs.push_back(proc);
        std::vector<int> modules;
        for (int j = 0; j < kModules; ++j) {
            EXPECT_EQ(arbiter.accepts(j), accept[j]);
            if (response[j])
                modules.push_back(j);
        }
        EXPECT_EQ(members(arbiter.processorCandidates()), procs);
        EXPECT_EQ(members(arbiter.moduleCandidates()), modules);
        EXPECT_EQ(arbiter.hasCandidates(),
                  !procs.empty() || !modules.empty());
    };
    auto wait = [&](int proc, int module) {
        arbiter.waiting(proc, module);
        waits_on[proc] = module;
        check();
    };
    auto grant = [&](int proc) {
        arbiter.granted(proc, waits_on.at(proc));
        waits_on.erase(proc);
        check();
    };
    auto refresh = [&](int module, bool a, bool r) {
        arbiter.refresh(module, a, r);
        accept[module] = a;
        response[module] = r;
        check();
    };
    auto set_accept = [&](int module, bool a) {
        arbiter.setAccept(module, a);
        accept[module] = a;
        check();
    };
    auto set_response = [&](int module, bool r) {
        arbiter.setResponse(module, r);
        response[module] = r;
        check();
    };

    check();
    wait(0, 1);
    wait(3, 1);
    wait(2, 0);
    refresh(1, false, false); // module 1 closes: 0 and 3 drop out
    wait(4, 1);               // waits on a closed module
    refresh(1, false, true);  // its response is ready
    refresh(1, false, true);  // nothing changed
    grant(2);
    refresh(0, false, false); // a module nobody waits on closes
    wait(1, 0);
    refresh(1, true, false);  // reopens: 0, 3 and 4 come back
    grant(3);
    refresh(0, true, true);   // 1 comes back; a response appears
    refresh(2, true, false);  // nothing changed
    grant(1);
    refresh(1, false, false);
    grant(0);
    grant(4);
    refresh(0, true, false);
    // The direct steps the unbuffered FastStat machine takes.
    set_accept(2, false);
    wait(0, 2);
    set_response(2, true);
    set_accept(2, true);
    grant(0);
    set_response(2, false);
    EXPECT_FALSE(arbiter.hasCandidates());
}

TEST(CompletionRing, PopsInPushOrder)
{
    CompletionRing ring(3, 4);
    EXPECT_GE(ring.capacity(), 3u);
    EXPECT_EQ(ring.nextDue(), kNever);
    ring.push(10, 2);
    ring.push(10, 0);
    ring.push(11, 1);
    EXPECT_EQ(ring.nextDue(), 14u);
    EXPECT_EQ(ring.pop(), 2);
    EXPECT_EQ(ring.nextDue(), 14u);
    EXPECT_EQ(ring.pop(), 0);
    ring.push(12, 2); // wraps around the three slots
    ring.push(12, 0);
    EXPECT_EQ(ring.nextDue(), 15u);
    EXPECT_EQ(ring.pop(), 1);
    EXPECT_EQ(ring.nextDue(), 16u);
    EXPECT_EQ(ring.pop(), 2);
    EXPECT_EQ(ring.pop(), 0);
    EXPECT_EQ(ring.nextDue(), kNever);
}

TEST(CompletionRingDeathTest, DiesOnOverflowAndOutOfOrderPush)
{
    EXPECT_DEATH(
        {
            CompletionRing ring(1, 4);
            ring.push(0, 0);
            ring.push(1, 0);
        },
        "completion ring overflow");
    EXPECT_DEATH(
        {
            CompletionRing ring(2, 4);
            ring.push(10, 0);
            ring.push(9, 1);
        },
        "out of FIFO order");
    // A zero stride puts the completion at its own start tick.
    EXPECT_DEATH(
        {
            CompletionRing ring(1, 0);
            ring.push(5, 0);
        },
        "in the past");
}

TEST(ProcessorQueues, KeepFifoOrderAcrossInterleavedQueues)
{
    // Five queues share one link array over 40 processors. Random
    // pushes and pops, each processor in at most one queue at a time,
    // must match a std::deque per queue in order, size and ready tick.
    constexpr std::size_t kQueues = 5;
    constexpr int kProcs = 40;
    ProcessorQueues queues(kQueues, kProcs);
    std::vector<std::deque<std::pair<int, Tick>>> model(kQueues);
    std::vector<int> idle;
    for (int p = 0; p < kProcs; ++p)
        idle.push_back(p);
    RandomGenerator rng(404);
    for (Tick step = 0; step < 200000; ++step) {
        const auto q = static_cast<std::size_t>(rng.uniformInt(kQueues));
        if (!idle.empty() && (model[q].empty() || rng.uniformInt(2) == 0)) {
            const auto pick = static_cast<std::size_t>(
                rng.uniformInt(idle.size()));
            const int proc = idle[pick];
            idle[pick] = idle.back();
            idle.pop_back();
            queues.push(q, proc, step);
            model[q].emplace_back(proc, step);
        } else if (!model[q].empty()) {
            ASSERT_EQ(queues.frontReady(q), model[q].front().second);
            const int proc = queues.pop(q);
            ASSERT_EQ(proc, model[q].front().first) << "step " << step;
            model[q].pop_front();
            idle.push_back(proc);
        }
        for (std::size_t k = 0; k < kQueues; ++k) {
            ASSERT_EQ(queues.size(k), model[k].size());
            ASSERT_EQ(queues.empty(k), model[k].empty());
        }
    }
}

} // namespace
} // namespace sbn
