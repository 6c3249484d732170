#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/fingerprint.hh"
#include "util/logging.hh"

namespace sbn {

double
Histogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

double
Histogram::binLow(std::size_t i)
{
    // i / 6.0 is exact when i is a multiple of 6, and exp2 of an
    // integer is the exact power of two.
    return std::exp2(static_cast<double>(i) /
                     static_cast<double>(kBinsPerOctave));
}

double
Histogram::maxSample() const
{
    return count_ ? static_cast<double>(max_)
                  : std::numeric_limits<double>::quiet_NaN();
}

double
Histogram::quantile(double q) const
{
    sbn_assert(q >= 0.0 && q <= 1.0, "quantile level must be in [0,1]");
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    std::uint64_t seen = underflow_;
    if (seen >= target)
        return 1.0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        seen += bins_[i];
        if (seen >= target)
            return binLow(i + 1);
    }
    // Only overflow mass remains (including the all-overflow case).
    return static_cast<double>(kHi);
}

void
Histogram::merge(const Histogram &other)
{
    for (std::size_t i = 0; i < bins_.size(); ++i)
        bins_[i] += other.bins_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    if (other.max_ > max_)
        max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
}

std::string
Histogram::render(std::size_t width) const
{
    std::uint64_t peak = 1;
    for (auto c : bins_)
        peak = std::max(peak, c);

    std::ostringstream os;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (!bins_[i])
            continue;
        os << '[' << binLow(i) << ", " << binLow(i + 1) << ") "
           << std::string(
                  std::max<std::size_t>(
                      static_cast<std::size_t>(
                          static_cast<double>(bins_[i]) /
                          static_cast<double>(peak) *
                          static_cast<double>(width)),
                      1),
                  '#')
           << ' ' << bins_[i] << '\n';
    }
    if (underflow_)
        os << "underflow " << underflow_ << '\n';
    if (overflow_)
        os << "overflow " << overflow_ << '\n';
    return os.str();
}

std::string
Histogram::renderFlatJson() const
{
    std::ostringstream os;
    os << "{\"type\":\"sbn.hist.v1\",\"scale\":\"log\",\"lo\":1,\"hi\":"
       << kHi << ",\"bins\":" << kBins << ",\"count\":" << count_
       << ",\"underflow\":" << underflow_
       << ",\"overflow\":" << overflow_
       << ",\"sum\":" << formatExactDouble(static_cast<double>(sum_))
       << ",\"counts\":\"";
    bool first = true;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (!bins_[i])
            continue;
        if (!first)
            os << ' ';
        os << i << ':' << bins_[i];
        first = false;
    }
    os << "\"}";
    return os.str();
}

void
Histogram::reset()
{
    std::fill(bins_.begin(), bins_.end(), 0);
    underflow_ = overflow_ = count_ = sum_ = max_ = 0;
}

} // namespace sbn
