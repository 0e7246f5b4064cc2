/**
 * @file
 * The benchmark's metric arithmetic: medians, tail percentiles that are
 * reported only when at least ten samples lie beyond them, scaling
 * efficiency, fleet overhead per cell, and the FNV-1a digest of
 * simulated results. Pure functions, unit-tested in
 * tests/test_ticsbench.cpp.
 */

#ifndef TICSBENCH_METRICS_HPP
#define TICSBENCH_METRICS_HPP

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace ticsbench {

/** Samples that must lie strictly beyond a reported percentile. */
constexpr std::size_t kMinSamplesBeyond = 10;

/** Median of @p v (mean of the middle two for an even count); 0 when
 *  empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile @p q (0 < q < 1) of @p v, or nullopt unless
 * at least kMinSamplesBeyond samples lie beyond the rank: the p50 needs
 * 20 samples, the p99 needs 1,000.
 */
std::optional<double> percentile(std::vector<double> v, double q);

/**
 * Parallel efficiency: @p rateN / (@p n × @p rate1). 1.0 is perfect
 * scaling over @p n workers; 0 when the single-worker rate is 0.
 */
double poolEfficiency(double rateN, double rate1, unsigned n);

/**
 * Fleet overhead per cell in µs: host seconds through worker processes
 * minus host seconds in-process for the same @p cells, divided by the
 * cell count. Negative when the fleet was faster; 0 for no cells.
 */
double overheadUsPerCell(double fleetS, double inProcessS,
                         std::size_t cells);

/** Share of @p whole not covered by @p covered (0 when whole <= 0). */
double uncoveredShare(double whole, double covered);

/** Incremental FNV-1a 64 over the simulated-result fields. */
class Digest
{
  public:
    void add(std::string_view bytes);
    void add(std::uint64_t v);
    void add(bool v) { add(static_cast<std::uint64_t>(v)); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMiB();

} // namespace ticsbench

#endif // TICSBENCH_METRICS_HPP
