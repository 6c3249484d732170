#include "stats/equivalence.hh"

#include <cmath>
#include <cstdio>

#include "util/logging.hh"

namespace sbn {

CiSummary
summarizeSamples(const std::vector<double> &values, double level)
{
    sbn_assert(values.size() >= 2,
               "a CI summary needs at least two replications");
    Accumulator acc;
    for (double v : values)
        acc.add(v);
    CiSummary out;
    out.count = acc.count();
    out.mean = acc.mean();
    out.variance = acc.variance();
    out.halfWidth = acc.confidenceHalfWidth(level);
    out.level = level;
    return out;
}

std::string
EquivalenceResult::describe() const
{
    char buffer[256];
    std::snprintf(buffer, sizeof buffer,
                  "%.6g [%.6g, %.6g] vs %.6g [%.6g, %.6g], "
                  "Welch t=%.3f (dof %.1f)",
                  a.mean, a.lo(), a.hi(), b.mean, b.lo(), b.hi(),
                  tStatistic, dof);
    return buffer;
}

EquivalenceResult
ciOverlapTest(const std::vector<double> &a,
              const std::vector<double> &b, double level)
{
    EquivalenceResult out;
    out.a = summarizeSamples(a, level);
    out.b = summarizeSamples(b, level);
    out.overlap = out.a.lo() <= out.b.hi() && out.b.lo() <= out.a.hi();

    const double na = static_cast<double>(out.a.count);
    const double nb = static_cast<double>(out.b.count);
    const double va = out.a.variance / na;
    const double vb = out.b.variance / nb;
    const double se = std::sqrt(va + vb);
    out.tStatistic =
        se > 0.0 ? (out.a.mean - out.b.mean) / se
                 : (out.a.mean == out.b.mean ? 0.0 : HUGE_VAL);
    const double denom = (va * va) / (na - 1.0) + (vb * vb) / (nb - 1.0);
    out.dof = denom > 0.0 ? (va + vb) * (va + vb) / denom : na + nb - 2.0;
    return out;
}

} // namespace sbn
