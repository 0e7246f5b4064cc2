/**
 * @file
 * Per-checkpoint-interval access tracing over the NvRam arena.
 *
 * The AccessTracer is an mem::AccessSink that a checker installs for
 * the duration of one Board::run. It slices the instrumented NV
 * traffic into *consistency intervals* — the spans between the commit
 * points every runtime already reports through Board::markProgress()
 * (checkpoint commits, task transitions, restart-from-main) — and
 * records, per interval, the ordered sequence of reads, writes and
 * versioning events together with how the interval ended: committed,
 * interrupted by a power failure, or still open when the run finished.
 *
 * Interval end states matter downstream: a WAR hazard in an interval
 * that actually ended in a power failure *materialized* (the stale
 * value was re-read by the re-execution), while the same hazard in a
 * committed interval stayed *latent* (this run got lucky).
 */

#ifndef TICSIM_ANALYSIS_ACCESS_TRACE_HPP
#define TICSIM_ANALYSIS_ACCESS_TRACE_HPP

#include <cstdint>
#include <vector>

#include "board/board.hpp"
#include "mem/port.hpp"
#include "support/units.hpp"

namespace ticsim::analysis {

/** One instrumented event inside an interval. */
enum class AccessKind : std::uint8_t {
    Read,      ///< NV bytes were read by application code
    Write,     ///< NV bytes were overwritten
    Versioned, ///< original contents became recoverable (log/ckpt/shadow)
};

struct AccessEvent {
    AccessKind kind;
    Addr addr;      ///< modeled arena address
    std::uint32_t bytes;
};

/** How a consistency interval ended. */
enum class IntervalEnd : std::uint8_t {
    Committed,   ///< a commit point sealed the interval's writes
    PowerFailed, ///< a brown-out abandoned it — hazards materialize
    RunEnd,      ///< the experiment finished with the interval open
};

/** The ordered event record of one consistency interval. */
struct IntervalTrace {
    std::uint64_t boot = 0; ///< boot (power cycle) index, 1-based
    IntervalEnd end = IntervalEnd::RunEnd;
    std::vector<AccessEvent> events;
};

/**
 * Records intervals for one traced Board::run. Installs itself as the
 * process-wide access sink on construction and restores the previous
 * sink on destruction; call finalize() after Board::run returns to
 * close the trailing interval.
 *
 * Filtering: reads and writes are only recorded while application code
 * is executing inside the board's context and only when they land in
 * the NvRam arena but outside the simulated stack buffer (stack bytes
 * are protected by the checkpointed stack image, not by data
 * versioning). Versioning events are recorded from either side of the
 * context boundary — restore paths legitimately establish coverage
 * from the scheduler.
 */
class AccessTracer final : public mem::AccessSink
{
  public:
    explicit AccessTracer(board::Board &board);

    AccessTracer(const AccessTracer &) = delete;
    AccessTracer &operator=(const AccessTracer &) = delete;

    // ---- mem::AccessSink --------------------------------------------------
    void memRead(const void *p, std::uint32_t bytes) override;
    void memWrite(const void *p, std::uint32_t bytes) override;
    void memVersioned(const void *p, std::uint32_t bytes) override;
    void powerOn() override;
    void commit() override;

    /** Close the open interval (RunEnd) after Board::run returns. */
    void finalize();

    const std::vector<IntervalTrace> &intervals() const
    {
        return intervals_;
    }

    std::uint64_t boots() const { return boots_; }
    std::uint64_t readBytes() const { return readBytes_; }
    std::uint64_t writeBytes() const { return writeBytes_; }
    std::uint64_t versionedBytes() const { return versionedBytes_; }

  private:
    /** Record an app-side data event if it targets traced NV state. */
    void recordData(AccessKind kind, const void *p, std::uint32_t bytes);

    void closeInterval(IntervalEnd end);

    board::Board &board_;
    std::vector<IntervalTrace> intervals_;
    IntervalTrace open_;
    std::uint64_t boots_ = 0;
    std::uint64_t readBytes_ = 0;
    std::uint64_t writeBytes_ = 0;
    std::uint64_t versionedBytes_ = 0;
    bool finalized_ = false;
    /** Attaches this tracer as the thread's sink; declared last so it
     *  detaches first. */
    mem::ScopedPort port_{{.sink = this}};
};

} // namespace ticsim::analysis

#endif // TICSIM_ANALYSIS_ACCESS_TRACE_HPP
