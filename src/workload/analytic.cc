#include "workload/analytic.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "analytic/memprio.hh"
#include "util/combinatorics.hh"
#include "util/logging.hh"

namespace sbn {

namespace {

/**
 * Dense-DTMC state-space guard: the solver is O(S^2) memory and
 * O(S^3) time, so the chain refuses shapes past a few thousand
 * composition states (n = 8, m = 6 is 1287; the validation grids sit
 * far below).
 */
constexpr std::size_t kMaxStates = 4000;

/** Enumerate the K-subsets of @p busy in lexicographic order. */
void
forEachSubset(const std::vector<int> &busy, int k,
              const std::function<void(const std::vector<int> &)> &visit)
{
    std::vector<int> chosen;
    chosen.reserve(static_cast<std::size_t>(k));
    std::function<void(std::size_t)> rec = [&](std::size_t start) {
        const std::size_t need =
            static_cast<std::size_t>(k) - chosen.size();
        if (need == 0) {
            visit(chosen);
            return;
        }
        for (std::size_t i = start; i + need <= busy.size(); ++i) {
            chosen.push_back(busy[i]);
            rec(i + 1);
            chosen.pop_back();
        }
    };
    rec(0);
}

} // namespace

WeightedChainResult
solveWeightedOccupancyChain(int n, int m, int cap,
                            const std::vector<double> &q)
{
    sbn_assert(n >= 1 && m >= 1 && cap >= 1,
               "weighted occupancy chain needs n, m, cap >= 1");
    sbn_assert(static_cast<int>(q.size()) == m,
               "module-selection vector size must equal m");
    double total = 0.0;
    for (double qj : q) {
        sbn_assert(qj > 0.0 && std::isfinite(qj),
                   "weighted occupancy chain needs every module "
                   "probability > 0 (zero-probability modules make "
                   "the chain reducible)");
        total += qj;
    }
    sbn_assert(std::abs(total - 1.0) < 1e-9,
               "module-selection probabilities must sum to 1");

    // States: occupancy vectors (compositions of n into m parts).
    std::vector<std::vector<int>> states;
    std::map<std::vector<int>, std::size_t> index;
    forEachComposition(n, m, [&](const std::vector<int> &v) {
        index[v] = states.size();
        states.push_back(v);
    });
    if (states.size() > kMaxStates)
        sbn_fatal("weighted occupancy chain for n=", n, ", m=", m,
                  " has ", states.size(),
                  " states - beyond the dense-solver guard of ",
                  kMaxStates,
                  "; this model is a small-shape validation tool");

    Dtmc dtmc(states.size());
    std::vector<int> busy;
    busy.reserve(static_cast<std::size_t>(m));
    for (std::size_t s = 0; s < states.size(); ++s) {
        const std::vector<int> &v = states[s];
        busy.clear();
        for (int j = 0; j < m; ++j)
            if (v[static_cast<std::size_t>(j)] > 0)
                busy.push_back(j);
        const int x = static_cast<int>(busy.size());
        const int k = std::min(x, cap);
        const double w_subset = 1.0 / binomial(x, k);

        double row_total = 0.0;
        forEachSubset(busy, k, [&](const std::vector<int> &serviced) {
            std::vector<int> base = v;
            for (int j : serviced)
                --base[static_cast<std::size_t>(j)];

            // The k serviced processors redraw independently:
            // multinomial redistribution over the m modules with
            // probabilities q.
            forEachComposition(
                k, m, [&](const std::vector<int> &adds) {
                    double w = factorial(k);
                    for (int j = 0; j < m; ++j) {
                        const int kj = adds[static_cast<std::size_t>(j)];
                        if (kj > 0)
                            w *= std::pow(q[static_cast<std::size_t>(j)],
                                          kj) /
                                 factorial(kj);
                    }
                    std::vector<int> next = base;
                    for (int j = 0; j < m; ++j)
                        next[static_cast<std::size_t>(j)] +=
                            adds[static_cast<std::size_t>(j)];
                    const double prob = w_subset * w;
                    row_total += prob;
                    dtmc.addTransition(s, index.at(next), prob);
                });
        });
        sbn_assert(std::abs(row_total - 1.0) < 1e-9,
                   "weighted chain row ", s, " sums to ", row_total);
    }
    dtmc.validate();

    const std::vector<double> pi = dtmc.stationaryDirect();

    WeightedChainResult result;
    const int x_max = std::min(n, m);
    result.busyPmf.assign(static_cast<std::size_t>(x_max) + 1, 0.0);
    result.moduleBusy.assign(static_cast<std::size_t>(m), 0.0);
    for (std::size_t s = 0; s < states.size(); ++s) {
        int x = 0;
        for (int j = 0; j < m; ++j) {
            if (states[s][static_cast<std::size_t>(j)] > 0) {
                ++x;
                result.moduleBusy[static_cast<std::size_t>(j)] += pi[s];
            }
        }
        result.busyPmf[static_cast<std::size_t>(x)] += pi[s];
        result.meanBusy += pi[s] * x;
        result.meanServiced += pi[s] * std::min(x, cap);
    }
    return result;
}

const WeightedChainResult &
solveWeightedOccupancyChainCached(int n, int m, int cap,
                                  const std::vector<double> &q)
{
    using Key = std::tuple<int, int, int, std::vector<double>>;
    static std::mutex cache_mutex;
    static std::map<Key, std::unique_ptr<WeightedChainResult>> cache;

    const Key key{n, m, cap, q};
    {
        std::lock_guard<std::mutex> lock(cache_mutex);
        const auto it = cache.find(key);
        if (it != cache.end())
            return *it->second;
    }

    // Solve outside the lock, as solveOccupancyChainCached does.
    auto solved = std::make_unique<WeightedChainResult>(
        solveWeightedOccupancyChain(n, m, cap, q));

    std::lock_guard<std::mutex> lock(cache_mutex);
    const auto [it, inserted] = cache.emplace(key, std::move(solved));
    return *it->second;
}

double
workloadExactMemprioEbw(int n, int m, int r,
                        const WorkloadConfig &workload)
{
    sbn_assert(r >= 1, "memory/bus cycle ratio r must be >= 1");
    sbn_assert(workload.processorIndependentReference(),
               "the weighted occupancy chain covers processor-"
               "independent reference patterns only (not Favorite)");
    const std::vector<double> q = workload.moduleProbabilities(0, m);
    const WeightedChainResult &result =
        solveWeightedOccupancyChainCached(n, m, r + 1, q);

    double ebw = 0.0;
    for (std::size_t x = 0; x < result.busyPmf.size(); ++x)
        ebw += result.busyPmf[x] *
               memprioUsefulEbw(static_cast<int>(x), r);
    return ebw;
}

} // namespace sbn
