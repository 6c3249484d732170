#include "analytic/occupancy_chain.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <tuple>

#include "util/combinatorics.hh"
#include "util/logging.hh"

namespace sbn {

OccupancyChain::OccupancyChain(int n, int m, int cap)
    : n_(n), m_(m), cap_(cap), dtmc_(1)
{
    sbn_assert(n >= 1, "occupancy chain needs n >= 1 processors");
    sbn_assert(m >= 1, "occupancy chain needs m >= 1 modules");
    sbn_assert(cap >= 1, "occupancy chain needs service cap >= 1");
    buildStates();
    dtmc_ = Dtmc(states_.size());
}

void
OccupancyChain::buildStates()
{
    forEachPartition(n_, m_, [this](const std::vector<int> &parts) {
        index_[parts] = states_.size();
        states_.push_back(parts);
    });
    sbn_assert(!states_.empty(), "no occupancy states enumerated");
}

std::size_t
OccupancyChain::stateIndex(const std::vector<int> &state) const
{
    const auto it = index_.find(state);
    sbn_assert(it != index_.end(), "unknown occupancy state");
    return it->second;
}

void
OccupancyChain::forEachServicedSplit(
    const std::vector<std::pair<int, int>> &groups, int k,
    const std::function<void(const std::vector<int> &, double)> &visit)
    const
{
    // Choose s_g serviced modules from each equal-value group so that
    // sum(s_g) = k; weight = prod C(count_g, s_g) / C(x, k) where x is
    // the total busy count (uniform random subset of size k).
    int x = 0;
    for (const auto &[value, count] : groups)
        x += count;
    const double denom = binomial(x, k);

    std::vector<int> split(groups.size(), 0);
    std::function<void(std::size_t, int, double)> rec =
        [&](std::size_t g, int left, double ways) {
            if (g == groups.size()) {
                if (left == 0)
                    visit(split, ways / denom);
                return;
            }
            const int count = groups[g].second;
            for (int s = 0; s <= std::min(count, left); ++s) {
                split[g] = s;
                rec(g + 1, left - s, ways * binomial(count, s));
            }
            split[g] = 0;
        };
    rec(0, k, 1.0);
}

void
OccupancyChain::forEachRedistribution(
    const std::vector<std::pair<int, int>> &cell_groups, int k,
    const std::function<void(const std::vector<std::vector<int>> &, double)>
        &visit) const
{
    // Distribute k distinguishable requests over m distinguishable
    // modules, aggregated by equal-value cell groups. For group g
    // receiving the positive-additions multiset mu_g over cells_g
    // cells, the number of underlying (module, request) assignments is
    //
    //   A(mu_g, cells_g) * k! / prod(parts!)
    //
    // summed over groups, normalized by m^k total assignments.
    const double norm = factorial(k) / std::pow(static_cast<double>(m_), k);

    std::vector<std::vector<int>> pattern(cell_groups.size());
    std::function<void(std::size_t, int, double)> rec =
        [&](std::size_t g, int left, double weight) {
            if (g == cell_groups.size()) {
                if (left == 0)
                    visit(pattern, weight * norm);
                return;
            }
            const int cells = cell_groups[g].second;
            // Last group must absorb the remainder; others choose.
            for (int kg = 0; kg <= left; ++kg) {
                forEachBoundedPartition(
                    kg, cells, kg, [&](const std::vector<int> &mu) {
                        pattern[g] = mu;
                        double w = assignmentsOntoCells(mu, cells);
                        for (int part : mu)
                            w /= factorial(part);
                        rec(g + 1, left - kg, weight * w);
                    });
            }
            pattern[g].clear();
        };
    rec(0, k, 1.0);
}

void
OccupancyChain::buildTransitions()
{
    for (std::size_t s = 0; s < states_.size(); ++s) {
        const auto &v = states_[s];

        // Group the busy modules by occupancy value.
        std::vector<std::pair<int, int>> busy_groups; // (value, count)
        for (int value : v) {
            if (!busy_groups.empty() && busy_groups.back().first == value)
                ++busy_groups.back().second;
            else
                busy_groups.emplace_back(value, 1);
        }
        const int x = static_cast<int>(v.size());
        const int k = std::min(x, cap_);

        double row_total = 0.0;

        forEachServicedSplit(
            busy_groups, k,
            [&](const std::vector<int> &split, double w_split) {
                // Intermediate occupancy after servicing: s_g modules
                // of each group drop from value to value-1.
                std::map<int, int, std::greater<int>> cells;
                for (std::size_t g = 0; g < busy_groups.size(); ++g) {
                    const auto [value, count] = busy_groups[g];
                    if (count - split[g] > 0)
                        cells[value] += count - split[g];
                    if (split[g] > 0)
                        cells[value - 1] += split[g];
                }
                cells[0] += m_ - x; // idle modules

                std::vector<std::pair<int, int>> cell_groups;
                for (const auto &[value, count] : cells)
                    if (count > 0)
                        cell_groups.emplace_back(value, count);

                forEachRedistribution(
                    cell_groups, k,
                    [&](const std::vector<std::vector<int>> &pattern,
                        double w_redist) {
                        // Materialize the canonical successor state.
                        std::vector<int> next;
                        next.reserve(v.size() + 1);
                        for (std::size_t g = 0; g < cell_groups.size();
                             ++g) {
                            const auto [value, count] = cell_groups[g];
                            const auto &mu = pattern[g];
                            for (int part : mu)
                                if (value + part > 0)
                                    next.push_back(value + part);
                            const int untouched =
                                count - static_cast<int>(mu.size());
                            for (int u = 0; u < untouched; ++u)
                                if (value > 0)
                                    next.push_back(value);
                        }
                        std::sort(next.begin(), next.end(),
                                  std::greater<int>());
                        const double prob = w_split * w_redist;
                        row_total += prob;
                        dtmc_.addTransition(s, stateIndex(next), prob);
                    });
            });

        sbn_assert(std::abs(row_total - 1.0) < 1e-9,
                   "transition row ", s, " sums to ", row_total);
    }
    dtmc_.validate();
    built_ = true;
}

const Dtmc &
OccupancyChain::chain()
{
    if (!built_)
        buildTransitions();
    return dtmc_;
}

OccupancyChainResult
OccupancyChain::solve()
{
    chain(); // ensure built

    OccupancyChainResult result;
    result.states = states_;
    result.pi = dtmc_.stationaryDirect();

    const int x_max = std::min(n_, m_);
    result.busyPmf.assign(x_max + 1, 0.0);
    for (std::size_t s = 0; s < states_.size(); ++s) {
        const int x = static_cast<int>(states_[s].size());
        result.busyPmf[x] += result.pi[s];
        result.meanBusy += result.pi[s] * x;
        result.meanServiced += result.pi[s] * std::min(x, cap_);
    }
    return result;
}

const OccupancyChainResult &
solveOccupancyChainCached(int n, int m, int cap)
{
    using Key = std::tuple<int, int, int>;
    static std::mutex cache_mutex;
    static std::map<Key, std::unique_ptr<OccupancyChainResult>> cache;

    const Key key{n, m, cap};
    {
        std::lock_guard<std::mutex> lock(cache_mutex);
        const auto it = cache.find(key);
        if (it != cache.end())
            return *it->second;
    }

    // Build and solve outside the lock so distinct shapes can be
    // solved concurrently; a losing racer on the same key discards
    // its (identical, deterministic) copy.
    auto solved = std::make_unique<OccupancyChainResult>(
        OccupancyChain(n, m, cap).solve());

    std::lock_guard<std::mutex> lock(cache_mutex);
    const auto [it, inserted] = cache.emplace(key, std::move(solved));
    return *it->second;
}

} // namespace sbn
