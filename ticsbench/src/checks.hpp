/**
 * @file
 * Correctness checks the benchmark applies to every result it times.
 * Each is a property the method must have, or a computation done apart
 * from the simulator; a cell or pair that violates one counts as a
 * failed operation. Outcome classes (livelocked, starved, out of
 * budget) are reported beside the checks and are never failures.
 */

#ifndef TICSBENCH_CHECKS_HPP
#define TICSBENCH_CHECKS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "apps/bc/bc_legacy.hpp"
#include "fault/explore.hpp"
#include "sweep/sweep.hpp"

namespace ticsbench {

/** Why a cell ended. */
enum class Outcome : std::uint8_t {
    Completed,   ///< the application entry returned
    Livelocked,  ///< plain C rebooted until the budget ran out
    Starved,     ///< the board declared no progress across reboots
    OutOfBudget, ///< a protected run still in progress at the budget
};
constexpr int kOutcomeCount = 4;

const char *outcomeName(Outcome o);

/**
 * Classify one cell's result. Plain C restarts from scratch on every
 * reboot, so an unfinished plain-C run that rebooted is livelocked by
 * construction; any other unfinished, unstarved run is out of budget.
 */
Outcome classify(const ticsim::sweep::Cell &cell,
                 const ticsim::sweep::CellResult &r);

/**
 * Every per-cell property @p r violates (empty when all hold):
 *  - on_time_ns == cycles × @p nsPerCycle, and elapsed_ns >= on_time_ns;
 *  - a protected cell that completed also verified;
 *  - a protected cell on a continuous or pattern supply completed;
 *  - a plain-C cell on a continuous supply completed and verified.
 */
std::vector<std::string> checkCell(const ticsim::sweep::Cell &cell,
                                   const ticsim::sweep::CellResult &r,
                                   std::uint64_t nsPerCycle);

/** "" when @p a and @p b are bit-identical, else the first field that
 *  differs. */
std::string diffResults(const ticsim::sweep::CellResult &a,
                        const ticsim::sweep::CellResult &b);

/**
 * The Bitcount grand total computed apart from the app: the same LCG
 * sequence (x' = 1664525 x + 1013904223 mod 2^32) summed with
 * std::popcount.
 */
std::uint64_t bcExpectedBits(const ticsim::apps::BcParams &p);

/**
 * Properties of one explored pair: the reference completed and
 * re-recorded consistently, the walk was exhausted, a protected pair
 * has zero confirmed violations and plain C at least one.
 */
std::vector<std::string>
checkExplore(const ticsim::fault::PairExploreResult &p);

/** "" when two explorations of one pair agree on every count and
 *  violation, else the first difference. */
std::string diffExplore(const ticsim::fault::PairExploreResult &a,
                        const ticsim::fault::PairExploreResult &b);

} // namespace ticsbench

#endif // TICSBENCH_CHECKS_HPP
