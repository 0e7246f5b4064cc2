/**
 * @file
 * The benchmark's four workloads and the run that measures one of them.
 *
 *  grid-short   AR/BC/CF x five runtimes on continuous and
 *               pattern:30:0.6 supplies over many seeds (setup-bound)
 *  harvest-long rf, stochastic and env= trace cells (simulation-bound)
 *  mc-proof     ticsmc's 10-pair matrix explored at depth 2
 *  fleet-short  grid-short's cells through fleet worker processes
 *
 * Each run is a closed loop of whole rounds from one process: a round
 * runs every operation of the workload once at one worker and once at
 * N = min(4, nproc) workers, and checks every result. An untraced run
 * reports the end-to-end metrics; a traced run (separate process)
 * reports the per-layer metrics.
 */

#ifndef TICSBENCH_WORKLOADS_HPP
#define TICSBENCH_WORKLOADS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"

namespace ticsbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs and a single round, with every check on. */
    bool smoke = false;
    /** Run one round at one worker and print only the digest. */
    bool digestOnly = false;
    std::string spansPath;  ///< traced run: where the spans go
    std::string traceDir;   ///< the env= trace CSV directory
    std::string workerBin;  ///< fleet worker executable
    unsigned jobsN = 4;
    /** steady_clock at process start, in seconds (setup_s origin). */
    double processStartS = 0.0;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** The first few failed checks, for the human-readable output. */
    std::vector<std::string> failures;
    std::array<std::uint64_t, kOutcomeCount> outcomes{};
    std::uint64_t digest = 0;
    std::vector<std::string> notes;

    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Count one failed operation, keeping its message if few so far. */
    void fail(const std::string &what);
    bool correct() const { return failed == 0; }
};

const std::vector<std::string> &workloadNames();

/** Run @p opt.workload per @p opt; fills @p out. */
void runWorkload(const Options &opt, Report &out);

/** steady_clock now, in seconds. */
double nowS();

/**
 * @p n distinct 32-bit cell seeds derived from the benchmark seed and a
 * stream name, so each grid's seeds are independent of the others'.
 */
std::vector<std::uint64_t> derivedSeeds(std::uint64_t benchSeed,
                                        const std::string &stream,
                                        std::size_t n);

} // namespace ticsbench

#endif // TICSBENCH_WORKLOADS_HPP
