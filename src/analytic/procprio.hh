/**
 * @file
 * Approximate Markov chain for the multiplexed single bus with
 * priority to processors and p = 1 (paper Section 4).
 *
 * The full state space (request vector + per-module service stage) is
 * intractable, so the paper lumps it into (i, c, e, b):
 *
 *   i - modules still performing their access,
 *   c - distinct modules demanded (busy or with queued requests),
 *   e - modules holding a completed response waiting for the bus,
 *   b - bus status: 0 response transfer, 1 request transfer, 2 idle.
 *
 * Four reachable state classes (time step = one bus cycle):
 *
 *   class 0: (i, c, 0, 2), i = c        bus idle
 *   class 1: (i, c, e, 0), 1+i+e = c    response on the bus
 *   class 2: (i, c, e, 1), 1+i+e = c    request on the bus, no other
 *                                       eligible request waiting
 *   class 3: (i, c, e, 1), 1+i+e < c    request on the bus, more
 *                                       eligible requests waiting
 *
 * Transition structure uses four approximate probabilities:
 *
 *   P1 = i/r                       some access completes this cycle
 *                                  (accesses start in distinct bus
 *                                  cycles, so at most one completes
 *                                  per cycle; each lasts exactly r)
 *   P2 = S(c-1) / (S(c-1) + S(c))  the just-served request was alone
 *                                  at its module, with
 *                                  S(k) = Surj(n-1, k)
 *   P3 = (c-1)/m                   new request hits one of the other
 *                                  c-1 demanded modules
 *   P4 = c/m                       new request hits one of the c
 *                                  demanded modules
 *
 * P2 is re-derived from its verbal definition (the printed formula is
 * OCR-degraded); see docs/design.md, "Section 4 chain". The class-3
 * completion transition is likewise re-derived to respect processor
 * priority; Options::literal_class3 switches back to the literal
 * printed target for comparison.
 */

#ifndef SBN_ANALYTIC_PROCPRIO_HH
#define SBN_ANALYTIC_PROCPRIO_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sbn {

/** Lumped state of the reduced chain. */
struct ProcPrioState
{
    int i; //!< modules mid-access
    int c; //!< distinct demanded modules
    int e; //!< modules holding a waiting response
    int b; //!< bus: 0 response, 1 request, 2 idle

    bool operator<(const ProcPrioState &o) const;
    bool operator==(const ProcPrioState &o) const;
};

/** Reduced Markov chain model (Section 4). */
class ProcPrioChain
{
  public:
    struct Options
    {
        /**
         * Use the literally printed class-3 completion target
         * (i,c,e,0) instead of the priority-consistent (i,c,e+1,1).
         * Kept for sensitivity analysis; Table 3b is validated against
         * the default.
         */
        bool literal_class3 = false;

        /**
         * Use P1 = 1/r (for i > 0) instead of P1 = i/r. The printed
         * text reads "Pi is approximately equal to I/r", which OCR
         * leaves ambiguous between i/r and 1/r; the numerical
         * validation against Table 3b selects the default.
         */
        bool constant_p1 = false;
    };

    /**
     * @param n processors, @param m modules, @param r memory/bus
     * cycle ratio (>= 1). Assumes p = 1.
     */
    ProcPrioChain(int n, int m, int r, Options options);

    /** Same with default options. */
    ProcPrioChain(int n, int m, int r)
        : ProcPrioChain(n, m, r, Options())
    {}

    /** Effective bandwidth: (r+2)/2 * P(bus busy). */
    double ebw() const { return ebw_; }

    /** Stationary bus utilization P(b != 2). */
    double busUtilization() const { return busUtilization_; }

    /** Reachable states (BFS order from the cold-start state). */
    const std::vector<ProcPrioState> &states() const { return states_; }

    /** Stationary law aligned with states(). */
    const std::vector<double> &stationary() const { return pi_; }

    /** Number of reachable states. */
    std::size_t numStates() const { return states_.size(); }

    /**
     * The paper's closed-form state count S = (3v^2+3v-2)/2 with
     * v = min(n, m), quoted for r > min(n, m). Our reachable
     * enumeration equals it for r >= v and falls short below
     * (docs/design.md, "Reachable states"); exposed so tests can pin
     * the relation.
     */
    static std::size_t paperStateCount(int n, int m);

  private:
    struct Transition
    {
        ProcPrioState to;
        double prob;
    };

    std::vector<Transition> transitionsFrom(const ProcPrioState &s) const;
    double p1(int i) const;
    double p2(int c) const;
    double p3(int c) const;
    double p4(int c) const;

    int n_, m_, r_;
    Options options_;
    std::vector<ProcPrioState> states_;
    std::vector<double> pi_;
    double ebw_ = 0.0;
    double busUtilization_ = 0.0;
};

} // namespace sbn

#endif // SBN_ANALYTIC_PROCPRIO_HH
