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
        return !candProcs_.empty() || !candModules_.empty();
    }
    bool accepts(int module) const { return accepts_[idx(module)] != 0; }
    const IndexSet &processorCandidates() const { return candProcs_; }
    const IndexSet &moduleCandidates() const { return candModules_; }

    /** @p proc issued a request to @p module and waits for the bus. */
    void waiting(int proc, int module)
    {
        waiters_[idx(module)].insert(idx(proc));
        if (accepts_[idx(module)])
            candProcs_.insert(idx(proc));
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

    /** Due tick of the oldest entry; kNever when empty. */
    Tick nextDue() const { return count_ != 0 ? entries_[head_].due : kNever; }

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
        ++count_;
    }

    /** Remove the oldest entry and return its module. @pre nonempty */
    int pop()
    {
        sbn_debug_assert(count_ != 0, "pop from an empty completion ring");
        const int module = entries_[head_].module;
        if (++head_ == entries_.size())
            head_ = 0;
        --count_;
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
    Tick lastDue_ = 0;
};

} // namespace sbn

#endif // SBN_CORE_ARBITER_HH
