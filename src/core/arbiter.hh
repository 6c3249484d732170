/**
 * @file
 * The bus arbiter and the completion calendar both kernels share.
 *
 * BusArbiter is the paper's grant rule. When processor requests and
 * memory responses compete for the next bus cycle, the policy picks
 * the class (hypothesis (g): g' processor, g'' memory priority) and
 * the selection rule one candidate in it (hypothesis (h): Random;
 * OldestFirst is the ablation). The candidates of each class are
 * IndexSets kept in lockstep with the state transitions that change
 * eligibility, so a grant never scans the system.
 *
 * CompletionRing is the memory-completion calendar. Every access
 * lasts exactly r ticks and starts at the monotone current tick, so
 * due order is push order, and a FIFO ring of at most m entries (one
 * per accessing module) is the whole calendar: no event heap.
 *
 * ProcessorQueues holds the buffered organization's per-module input
 * and output queues, linked through the processors that wait in
 * them, so neither kernel allocates per request.
 *
 * Header-only, like core/collector.hh, so the flattened driver loops
 * of CycleSkip (core/system.hh) and FastStat (core/faststat.hh) inline
 * every call. Neither type knows its caller: the kernel passes in the
 * random pick and the OldestFirst keys, and applies the grant itself.
 */

#ifndef SBN_CORE_ARBITER_HH
#define SBN_CORE_ARBITER_HH

#include <cstdint>
#include <vector>

#include "core/config.hh"
#include "core/tick.hh"
#include "util/index_set.hh"
#include "util/logging.hh"

namespace sbn {

/**
 * Grant candidates and the grant rule. Invariant, kept by every
 * mutator: a processor is a request candidate iff it waits on a module
 * that accepts a request; a module is a response candidate iff it
 * holds a deliverable response. Modules start accepting, responseless.
 */
class BusArbiter
{
  public:
    /** A request or a response to grant; both -1 when none. */
    struct Choice
    {
        int proc = -1;
        int module = -1;
    };

    explicit BusArbiter(const SystemConfig &cfg)
        : policy_(cfg.policy), selection_(cfg.selection),
          candProcs_(idx(cfg.numProcessors)),
          candModules_(idx(cfg.numModules)),
          waiters_(idx(cfg.numModules), IndexSet(idx(cfg.numProcessors))),
          accepts_(idx(cfg.numModules), 1u),
          responds_(idx(cfg.numModules), 0u)
    {
    }

    bool hasCandidates() const
    {
        return (candProcs_.count() | candModules_.count()) != 0;
    }
    bool accepts(int module) const { return accepts_[idx(module)] != 0; }
    const IndexSet &processorCandidates() const { return candProcs_; }
    const IndexSet &moduleCandidates() const { return candModules_; }

    /** @p proc issued a request to @p module and waits for the bus;
     *  returns whether it is a request candidate now. */
    bool waiting(int proc, int module)
    {
        waiters_[idx(module)].insert(idx(proc));
        if (!accepts_[idx(module)])
            return false;
        candProcs_.insert(idx(proc));
        return true;
    }

    /** @p proc's request to @p module got the bus. */
    void granted(int proc, int module)
    {
        waiters_[idx(module)].erase(idx(proc));
        candProcs_.erase(idx(proc));
    }

    /** @p module starts or stops accepting requests. */
    void setAccept(int module, bool accept)
    {
        accepts_[idx(module)] = accept ? 1u : 0u;
        const IndexSet &waiters = waiters_[idx(module)];
        if (waiters.empty())
            return;
        if (accept)
            candProcs_.insertAll(waiters);
        else
            candProcs_.eraseAll(waiters);
    }

    /** @p module starts or stops holding a deliverable response. */
    void setResponse(int module, bool response)
    {
        responds_[idx(module)] = response ? 1u : 0u;
        if (response)
            candModules_.insert(idx(module));
        else
            candModules_.erase(idx(module));
    }

    /** Bring @p module's flags up to date; only a changed flag touches
     *  the candidate sets. */
    void refresh(int module, bool accept, bool response)
    {
        if (accept != (accepts_[idx(module)] != 0))
            setAccept(module, accept);
        if (response != (responds_[idx(module)] != 0))
            setResponse(module, response);
    }

    /**
     * The next grant. Random takes member pick(count) of the winning
     * class; OldestFirst the smallest proc_key(proc) or
     * module_key(module). Members go in ascending index order, so a
     * tie goes to the lowest index: the classic kernel's scan order,
     * which the golden pins hold.
     */
    template <typename Pick, typename ProcKey, typename ModuleKey>
    Choice select(Pick &&pick, ProcKey &&proc_key,
                  ModuleKey &&module_key) const
    {
        Choice choice;
        if (!candProcs_.empty() &&
            (policy_ == ArbitrationPolicy::ProcessorPriority ||
             candModules_.empty()))
            choice.proc = choose(candProcs_, pick, proc_key);
        else if (!candModules_.empty())
            choice.module = choose(candModules_, pick, module_key);
        return choice;
    }

  private:
    static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

    template <typename Pick, typename Key>
    int choose(const IndexSet &candidates, Pick &pick, Key &key) const
    {
        if (selection_ == SelectionRule::Random)
            return static_cast<int>(
                candidates.nth(pick(candidates.count())));
        int best = -1;
        Tick best_key = 0;
        candidates.forEach([&](std::size_t i) {
            const Tick k = key(static_cast<int>(i));
            if (best < 0 || k < best_key) {
                best = static_cast<int>(i);
                best_key = k;
            }
        });
        return best;
    }

    ArbitrationPolicy policy_;
    SelectionRule selection_;
    IndexSet candProcs_;
    IndexSet candModules_;
    std::vector<IndexSet> waiters_; //!< per module: waiting processors
    // uint32_t, not char: a char store may alias anything, forcing a
    // flattened driver loop to reload every cached pointer.
    std::vector<std::uint32_t> accepts_;
    std::vector<std::uint32_t> responds_;
};

/**
 * Pending memory completions {due, module}, oldest first; due is one
 * fixed stride (r) after the access starts. push() dies on overflow,
 * on a due tick not after its start and on one out of due order.
 */
class CompletionRing
{
  public:
    CompletionRing(std::size_t modules, Tick stride)
        : entries_(modules), stride_(stride)
    {
    }

    std::size_t capacity() const { return entries_.capacity(); }

    /** Due tick of the oldest entry; kNever when empty. Cached, so the
     *  driver loops read one member per pass. */
    Tick nextDue() const { return headDue_; }

    /** @p module's access starts at @p start. */
    void push(Tick start, int module)
    {
        const Tick due = start + stride_;
        sbn_assert(count_ < entries_.size(), "completion ring overflow");
        sbn_assert(due > start && due >= lastDue_, "completion due at ",
                   due, " is in the past or out of FIFO order (start ",
                   start, ", last due ", lastDue_, ")");
        lastDue_ = due;
        std::size_t tail = head_ + count_;
        if (tail >= entries_.size())
            tail -= entries_.size();
        entries_[tail] = Entry{due, module};
        if (count_++ == 0)
            headDue_ = due;
    }

    /** Remove the oldest entry and return its module. @pre nonempty */
    int pop()
    {
        sbn_debug_assert(count_ != 0, "pop from an empty completion ring");
        const int module = entries_[head_].module;
        if (++head_ == entries_.size())
            head_ = 0;
        headDue_ = --count_ != 0 ? entries_[head_].due : kNever;
        return module;
    }

  private:
    struct Entry
    {
        Tick due;
        int module;
    };

    std::vector<Entry> entries_;
    Tick stride_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    Tick headDue_ = kNever;
    Tick lastDue_ = 0;
};

/**
 * The buffered organization's per-module request and response queues:
 * FIFOs of processors threaded through one link per processor. A
 * processor has at most one request outstanding, so it sits in at
 * most one of the queues at any time, and every queue together needs
 * one link and one ready tick per processor (the tick its response
 * became deliverable, OldestFirst's key) and a head, tail and size
 * per queue. Nothing allocates after construction. push() of a
 * processor that is already queued, and pop() of an empty queue, die
 * in debug builds.
 */
class ProcessorQueues
{
  public:
    ProcessorQueues(std::size_t queues, std::size_t processors)
        : queues_(queues), next_(processors, kUnlinked),
          ready_(processors, 0)
    {
    }

    std::size_t size(std::size_t queue) const { return queues_[queue].size; }
    bool empty(std::size_t queue) const { return queues_[queue].size == 0; }

    /** Ready tick of the oldest member of @p queue. @pre nonempty */
    Tick frontReady(std::size_t queue) const
    {
        return ready_[static_cast<std::size_t>(queues_[queue].head)];
    }

    /** Append @p proc, which is in no queue, to @p queue. */
    void push(std::size_t queue, int proc, Tick ready = 0)
    {
        const auto p = static_cast<std::size_t>(proc);
        sbn_debug_assert(next_[p] == kUnlinked,
                         "processor ", proc, " is already queued");
        Queue &q = queues_[queue];
        next_[p] = kEnd;
        ready_[p] = ready;
        if (q.size++ == 0)
            q.head = proc;
        else
            next_[static_cast<std::size_t>(q.tail)] = proc;
        q.tail = proc;
    }

    /** Remove and return the oldest member of @p queue. @pre nonempty */
    int pop(std::size_t queue)
    {
        Queue &q = queues_[queue];
        sbn_debug_assert(q.size != 0, "pop from an empty processor queue");
        const int proc = q.head;
        const auto p = static_cast<std::size_t>(proc);
        q.head = next_[p];
        next_[p] = kUnlinked;
        --q.size;
        return proc;
    }

  private:
    static constexpr std::int32_t kEnd = -1;      //!< last in its queue
    static constexpr std::int32_t kUnlinked = -2; //!< in no queue

    struct Queue
    {
        std::int32_t head = kEnd;
        std::int32_t tail = kEnd;
        std::uint32_t size = 0;
    };

    std::vector<Queue> queues_;
    std::vector<std::int32_t> next_; //!< per processor: next in queue
    std::vector<Tick> ready_;        //!< per processor: ready tick
};

} // namespace sbn

#endif // SBN_CORE_ARBITER_HH
