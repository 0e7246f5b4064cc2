/**
 * @file
 * A sweep cell assembled by the benchmark itself, so the traced run can
 * time each phase from outside the simulator: harness::makeBoard, the
 * runtime and app constructors, Board::run, then the app's verify().
 * The assembly mirrors sweep::runCell; the traced run checks that both
 * produce bit-identical results.
 */

#ifndef TICSBENCH_CELLS_HPP
#define TICSBENCH_CELLS_HPP

#include <cstdint>

#include "spans.hpp"
#include "sweep/sweep.hpp"

namespace ticsbench {

/** Host time of each phase of one assembled cell, in µs. */
struct CellPhases {
    double makeBoardUs = 0.0;
    double constructUs = 0.0; ///< runtime plus app constructors
    double runUs = 0.0;
    double verifyUs = 0.0;
    double totalUs = 0.0;     ///< the whole cell span
    /** Bitcount cells only: the app's grand total and its parameters'
     *  expected total computed by the benchmark (checks.hpp). */
    bool isBitcount = false;
    std::uint64_t bcBits = 0;
    std::uint64_t bcExpected = 0;
};

/**
 * Run @p cell phase by phase, recording a "cell" span (child of
 * @p parent) with one child span per phase into @p log.
 */
ticsim::sweep::CellResult assembleCell(const ticsim::sweep::Cell &cell,
                                       const ticsim::sweep::SweepConfig &cfg,
                                       SpanLog &log, std::int32_t parent,
                                       std::int64_t cellId,
                                       CellPhases &phases);

} // namespace ticsbench

#endif // TICSBENCH_CELLS_HPP
