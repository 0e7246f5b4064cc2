#include "undo_log.hpp"

#include <cstddef>
#include <cstring>

#include "mem/port.hpp"
#include "perf/counters.hpp"
#include "support/crc32.hpp"
#include "support/logging.hpp"

namespace ticsim::tics {

UndoLog::UndoLog(mem::NvRam &ram, const std::string &name,
                 std::uint32_t poolBytes, std::uint32_t maxEntries)
    : poolBytes_(poolBytes), maxEntries_(maxEntries)
{
    const auto poolAddr = ram.allocate(name + ".pool", poolBytes, 8);
    const auto tblAddr = ram.allocate(
        name + ".entries",
        maxEntries * static_cast<std::uint32_t>(sizeof(Entry)),
        alignof(Entry));
    pool_ = ram.hostPtr(poolAddr);
    entries_ = reinterpret_cast<Entry *>(ram.hostPtr(tblAddr));
}

bool
UndoLog::wouldOverflow(std::uint32_t bytes) const
{
    return count_ >= maxEntries_ || poolUsed_ + bytes > poolBytes_;
}

std::uint32_t
UndoLog::entryCrc(const Entry &e, const std::uint8_t *saved)
{
    return crc32(saved, e.bytes, crc32(&e, offsetof(Entry, crc)));
}

void
UndoLog::append(void *p, std::uint32_t bytes)
{
    TICSIM_ASSERT(!wouldOverflow(bytes), "undo log overflow");
    // memset, not just field assignment: Entry has tail padding, and
    // gatedStore copies sizeof(Entry) raw bytes into the NV arena.
    Entry e;
    std::memset(&e, 0, sizeof e);
    e.target = static_cast<std::uint8_t *>(p);
    e.bytes = bytes;
    e.poolOff = poolUsed_;
    // Seal over the *source* bytes before the (tearable) pool store:
    // a tear leaves a record whose pool contents no longer match.
    e.crc = crc32(p, bytes, crc32(&e, offsetof(Entry, crc)));
    mem::gatedStore(mem::StoreSite::UndoPool, pool_ + poolUsed_, p,
                    bytes);
    mem::gatedStore(mem::StoreSite::UndoPool, &entries_[count_], &e,
                    static_cast<std::uint32_t>(sizeof(Entry)));
    poolUsed_ += bytes;
    // Publishing the entry is the final, host-side bump: a tear in
    // either store above dies before it and the log stays unchanged.
    ++count_;
    {
        perf::HotCounters &c = perf::hot();
        ++c.undoRecordsSealed;
        c.undoBytesSealed += bytes;
    }
    mem::traceVersioned(p, bytes);
}

std::uint32_t
UndoLog::rollback()
{
    return rollbackTo(0);
}

std::uint32_t
UndoLog::rollbackTo(std::uint32_t watermark)
{
    TICSIM_ASSERT(watermark <= count_);
    std::uint32_t applied = 0;
    // Newest first, so overlapping records end with the oldest value.
    for (std::uint32_t i = count_; i > watermark; --i) {
        Entry e;
        std::memcpy(&e, &entries_[i - 1], sizeof(Entry));
        // Bounds before CRC (a torn entry may carry a garbage length),
        // CRC before applying (a flipped pool byte must not reach the
        // target).
        if (e.poolOff > poolBytes_ || e.bytes > poolBytes_ - e.poolOff ||
            entryCrc(e, pool_ + e.poolOff) != e.crc) {
            ++corrupt_;
            ++perf::hot().undoRecordsCorrupt;
            warn("undo log: record %u fails validation "
                 "(torn append or NV corruption); skipped",
                 i - 1);
            continue;
        }
        mem::journalNote(e.target, e.bytes);
        std::memcpy(e.target, pool_ + e.poolOff, e.bytes);
        ++applied;
        ++perf::hot().undoRecordsRolledBack;
    }
    count_ = watermark;
    poolUsed_ = watermark == 0 ? 0 : entries_[watermark - 1].poolOff +
                                         entries_[watermark - 1].bytes;
    return applied;
}

void
UndoLog::clear()
{
    count_ = 0;
    poolUsed_ = 0;
}

std::uint32_t
UndoLog::bytesSince(std::uint32_t watermark) const
{
    std::uint32_t total = 0;
    for (std::uint32_t i = watermark; i < count_; ++i)
        total += entries_[i].bytes;
    return total;
}

} // namespace ticsim::tics
