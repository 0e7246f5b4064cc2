#include "metrics.hpp"

#include <algorithm>
#include <cmath>

#include <sys/resource.h>

namespace ticsbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/** 1-based nearest rank of percentile @p q over @p n samples. */
std::size_t
nearestRank(double q, std::size_t n)
{
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

std::optional<double>
percentile(std::vector<double> v, double q)
{
    if (v.empty() || q <= 0.0 || q >= 1.0)
        return std::nullopt;
    const std::size_t rank = nearestRank(q, v.size());
    if (v.size() - rank < kMinSamplesBeyond)
        return std::nullopt;
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

double
poolEfficiency(double rateN, double rate1, unsigned n)
{
    if (rate1 <= 0.0 || n == 0)
        return 0.0;
    return rateN / (static_cast<double>(n) * rate1);
}

double
overheadUsPerCell(double fleetS, double inProcessS, std::size_t cells)
{
    if (cells == 0)
        return 0.0;
    return (fleetS - inProcessS) * 1e6 / static_cast<double>(cells);
}

double
uncoveredShare(double whole, double covered)
{
    if (whole <= 0.0)
        return 0.0;
    return (whole - covered) / whole;
}

void
Digest::add(std::string_view bytes)
{
    for (const char c : bytes) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ull;
    }
}

double
peakRssMiB()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss: KiB
}

} // namespace ticsbench
