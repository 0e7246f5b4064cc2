/**
 * @file
 * Bounded virtual-time event timeline.
 *
 * A bounded ring of typed events, each stamped with the board's true
 * virtual time at emission. The buffer grows on demand up to capacity,
 * so a run pays only for the events it records, and emit() is a couple
 * of stores, so recording is safe on the charge path; once the ring is
 * full, the oldest events are overwritten and a drop counter records
 * how many were lost (the exporter reports it).
 *
 * Events are host-side observability only — emitting charges no
 * cycles, so enabling the timeline cannot change modeled results.
 */

#ifndef TICSIM_TELEMETRY_EVENTS_HPP
#define TICSIM_TELEMETRY_EVENTS_HPP

#include <cstdint>
#include <vector>

#include "support/units.hpp"

namespace ticsim::telemetry {

/** Timeline event types. */
enum class EventKind : std::uint8_t {
    Boot,             ///< power restored, runtime boot begins
    BrownOut,         ///< supply died (instant)
    InjectedFail,     ///< injected death (fault campaign / explorer),
                      ///< emitted just before the matching BrownOut
    Outage,           ///< off interval; at = death time, arg1 = off ns
    CheckpointCommit, ///< a checkpoint committed (arg0 = cause)
    Restore,          ///< a restore re-armed the application
    Rollback,         ///< boot-time rollback applied (arg0 = entries)
    Violation,        ///< consistency violation observed (arg0 = kind)
    RadioSend,        ///< radio packet sent (arg0 = bytes)
    SupplyState,      ///< supply regime change (arg0 = new state)
    PhaseSlice,       ///< coarse phase; at = start, arg0 = phase,
                      ///< arg1 = duration ns
};

/** Stable lower-case name ("boot", "checkpoint_commit", ...). */
const char *eventName(EventKind k);

/** One timeline record (fixed-size, trivially copyable). */
struct Event {
    TimeNs at = 0;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    EventKind kind = EventKind::Boot;
};

class EventRing
{
  public:
    explicit EventRing(std::uint32_t capacity = 1 << 16);

    /** Append an event; overwrites the oldest when full. */
    void emit(EventKind kind, TimeNs at, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0);

    /** Events currently held, oldest first. */
    std::vector<Event> snapshot() const;

    std::uint32_t size() const { return count_; }
    /** The configured bound, however far the buffer has grown. */
    std::uint32_t capacity() const { return cap_; }

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    void clear();

    /**
     * Position marker for snapshot/rewind. rewind() truncates the
     * ring back to a mark taken earlier, making a restored run's
     * timeline identical to a from-scratch run's. Truncation is only
     * exact while no events have been overwritten since the mark;
     * rewind() reports that as its return value (and restores the
     * counters regardless, so a subsequent snapshot() is still
     * consistent with the mark's view of the ring).
     */
    struct Mark {
        std::uint32_t head = 0;
        std::uint32_t count = 0;
        std::uint64_t dropped = 0;
    };

    Mark mark() const { return Mark{head_, count_, dropped_}; }

    /** @return true iff the rewind is exact (no drops since @p m). */
    bool rewind(const Mark &m);

  private:
    /// Grows by push_back until it holds cap_ events. While it is
    /// shorter, head_ is 0 and head_ + count_ <= buf_.size().
    std::vector<Event> buf_;
    std::uint32_t cap_;
    std::uint32_t head_ = 0;  ///< index of the oldest event
    std::uint32_t count_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace ticsim::telemetry

#endif // TICSIM_TELEMETRY_EVENTS_HPP
