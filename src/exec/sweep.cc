#include "exec/sweep.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace sbn {

namespace {

/** Axis length with the "empty means base value" convention. */
template <typename T>
std::size_t
axisSize(const std::vector<T> &axis)
{
    return axis.empty() ? 1 : axis.size();
}

} // namespace

namespace {

/** False, with a message in @p error, if @p axis repeats a value
 *  (the same grid point twice). */
template <typename T>
bool
rejectDuplicates(const std::vector<T> &axis, const char *name,
                 std::string &error)
{
    for (std::size_t i = 0; i < axis.size(); ++i)
        for (std::size_t j = i + 1; j < axis.size(); ++j)
            if (axis[i] == axis[j])
                return failWith(error, "SweepSpec: axis '", name,
                                "' lists the same value twice (entries ",
                                i, " and ", j,
                                ") - the grid point would run twice and "
                                "its flat index would be ambiguous");
    return true;
}

} // namespace

bool
SweepSpec::validate(std::string &error) const
{
    if (!rejectDuplicates(processors, "processors", error) ||
        !rejectDuplicates(modules, "modules", error) ||
        !rejectDuplicates(memoryRatios, "memoryRatios", error) ||
        !rejectDuplicates(requestProbabilities, "requestProbabilities",
                          error) ||
        !rejectDuplicates(policies, "policies", error) ||
        !rejectDuplicates(buffering, "buffering", error) ||
        !rejectDuplicates(hotFractions, "hotFractions", error) ||
        !rejectDuplicates(favoriteFractions, "favoriteFractions", error))
        return false;

    if (!hotFractions.empty() && !favoriteFractions.empty())
        return failWith(error,
                        "SweepSpec: hotFractions and favoriteFractions "
                        "cannot both be swept (they select conflicting "
                        "reference patterns)");
    for (double h : hotFractions)
        if (!(h >= 0.0 && h <= 1.0))
            return failWith(error, "SweepSpec: hotFractions axis value ",
                            h, " (must be in [0,1])");
    for (double f : favoriteFractions)
        if (!(f >= 0.0 && f <= 1.0))
            return failWith(error,
                            "SweepSpec: favoriteFractions axis value ", f,
                            " (must be in [0,1])");

    for (int n : processors)
        if (n < 1)
            return failWith(error, "SweepSpec: processors axis value ",
                            n, " (must be >= 1)");
    for (int m : modules)
        if (m < 1)
            return failWith(error, "SweepSpec: modules axis value ", m,
                            " (must be >= 1)");
    for (int r : memoryRatios)
        if (r < 1)
            return failWith(error, "SweepSpec: memoryRatios axis value ",
                            r, " (must be >= 1)");
    for (double p : requestProbabilities)
        if (!(p >= 0.0 && p <= 1.0))
            return failWith(error,
                            "SweepSpec: requestProbabilities axis value ",
                            p, " (must be in [0,1])");

    return base.validate(error);
}

std::size_t
SweepSpec::size() const
{
    return axisSize(processors) * axisSize(modules) *
           axisSize(memoryRatios) * axisSize(requestProbabilities) *
           axisSize(policies) * axisSize(buffering) *
           axisSize(hotFractions) * axisSize(favoriteFractions);
}

std::vector<SystemConfig>
SweepSpec::materialize() const
{
    std::string error;
    if (!validate(error))
        sbn_fatal(error);

    std::vector<SystemConfig> points;
    points.reserve(size());

    const auto each = [](const auto &axis, auto base_value,
                         const auto &visit) {
        if (axis.empty()) {
            visit(base_value);
            return;
        }
        for (const auto &value : axis)
            visit(value);
    };

    // The workload axes expand innermost; emit() applies whichever
    // one is active (validate() rejects both at once) before the
    // point is recorded.
    const auto emit = [&](SystemConfig cfg) {
        if (hotFractions.empty() && favoriteFractions.empty()) {
            points.push_back(cfg);
            return;
        }
        if (!hotFractions.empty()) {
            cfg.workload.pattern = ReferencePattern::HotSpot;
            for (double h : hotFractions) {
                cfg.workload.hotFraction = h;
                points.push_back(cfg);
            }
            return;
        }
        cfg.workload.pattern = ReferencePattern::Favorite;
        for (double f : favoriteFractions) {
            cfg.workload.favoriteFraction = f;
            points.push_back(cfg);
        }
    };

    each(processors, base.numProcessors, [&](int n) {
        each(modules, base.numModules, [&](int m) {
            each(memoryRatios, base.memoryRatio, [&](int r) {
                each(requestProbabilities, base.requestProbability,
                     [&](double p) {
                         each(policies, base.policy,
                              [&](ArbitrationPolicy g) {
                                  each(buffering, base.buffered,
                                       [&](bool b) {
                                           SystemConfig cfg = base;
                                           cfg.numProcessors = n;
                                           cfg.numModules = m;
                                           cfg.memoryRatio = r;
                                           cfg.requestProbability = p;
                                           cfg.policy = g;
                                           cfg.buffered = b;
                                           emit(cfg);
                                       });
                              });
                     });
            });
        });
    });
    return points;
}

} // namespace sbn
