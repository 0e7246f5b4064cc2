#include "events.hpp"

#include "perf/counters.hpp"

namespace ticsim::telemetry {

const char *
eventName(EventKind k)
{
    switch (k) {
      case EventKind::Boot:             return "boot";
      case EventKind::BrownOut:         return "brown_out";
      case EventKind::InjectedFail:     return "injected_fail";
      case EventKind::Outage:           return "outage";
      case EventKind::CheckpointCommit: return "checkpoint_commit";
      case EventKind::Restore:          return "restore";
      case EventKind::Rollback:         return "rollback";
      case EventKind::Violation:        return "violation";
      case EventKind::RadioSend:        return "radio_send";
      case EventKind::SupplyState:      return "supply_state";
      case EventKind::PhaseSlice:       return "phase";
    }
    return "?";
}

EventRing::EventRing(std::uint32_t capacity)
    : cap_(capacity > 0 ? capacity : 1)
{
}

void
EventRing::emit(EventKind kind, TimeNs at, std::uint64_t arg0,
                std::uint64_t arg1)
{
    std::uint32_t slot;
    ++perf::hot().eventPushes;
    if (count_ < cap_) {
        slot = (head_ + count_) % cap_;
        ++count_;
    } else {
        slot = head_;  // overwrite the oldest
        head_ = (head_ + 1) % cap_;
        ++dropped_;
        ++perf::hot().eventDrops;
    }
    // slot == buf_.size() only while growing; after a rewind, lower
    // slots are overwritten in place.
    if (slot < buf_.size())
        buf_[slot] = Event{at, arg0, arg1, kind};
    else
        buf_.push_back(Event{at, arg0, arg1, kind});
}

std::vector<Event>
EventRing::snapshot() const
{
    std::vector<Event> out;
    out.reserve(count_);
    for (std::uint32_t i = 0; i < count_; ++i)
        out.push_back(buf_[(head_ + i) % cap_]);
    return out;
}

void
EventRing::clear()
{
    head_ = 0;
    count_ = 0;
    dropped_ = 0;
}

bool
EventRing::rewind(const Mark &m)
{
    const bool exact = dropped_ == m.dropped;
    head_ = m.head;
    count_ = m.count;
    dropped_ = m.dropped;
    return exact;
}

} // namespace ticsim::telemetry
