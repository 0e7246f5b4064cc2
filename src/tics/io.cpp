#include "io.hpp"

#include <cstring>

#include "mem/port.hpp"
#include "support/logging.hpp"

namespace ticsim::tics {

VirtualRadio::VirtualRadio(TicsRuntime &rt, mem::NvRam &ram,
                           const std::string &name)
    : rt_(rt)
{
    constexpr auto kRingBytes =
        static_cast<std::uint32_t>(sizeof(Slot) * kRingSlots);
    const auto ringAddr = ram.allocate(name + ".ring", kRingBytes, 8);
    const auto stg = ram.allocate(name + ".staged", 4, 4);
    const auto snt = ram.allocate(name + ".sent", 4, 4);
    ring_ = reinterpret_cast<Slot *>(ram.hostPtr(ringAddr));
    stagedSeq_ = reinterpret_cast<std::uint32_t *>(ram.hostPtr(stg));
    sentSeqNv_ = reinterpret_cast<std::uint32_t *>(ram.hostPtr(snt));
    std::memset(static_cast<void *>(ring_), 0, kRingBytes);
    *stagedSeq_ = 0;
    *sentSeqNv_ = 0;
    rt.setPostCommitHook([this] { flush(); });
    rt.footprint().add("virtual radio " + name, 420, kRingBytes + 8);
}

void
VirtualRadio::send(const void *data, std::uint32_t bytes)
{
    TICSIM_ASSERT(bytes <= kMaxPayload, "payload %u > %u", bytes,
                  kMaxPayload);
    // Ring full of committed-but-undrained messages: force commits
    // (whose post-commit hooks drain). Re-checked in a loop so that
    // resuming past one of these checkpoints can never skip the guard
    // and overwrite an undrained slot.
    while (*stagedSeq_ - *sentSeqNv_ >= kRingSlots)
        rt_.checkpointNow();

    const std::uint32_t seq = *stagedSeq_ + 1;
    Slot *slot = &ring_[seq % kRingSlots];
    Header hdr{seq};
    constexpr auto kHdrBytes = static_cast<std::uint32_t>(sizeof(Header));
    rt_.storeBytes(slot->bytes, &hdr, kHdrBytes);
    rt_.storeBytes(slot->bytes + kHdrBytes, data, bytes);
    rt_.store(&slot->len, kHdrBytes + bytes);
    rt_.store(stagedSeq_, seq);
    mem::traceSideEvent(mem::SideEventKind::PeripheralStage, "radio",
                        bytes, seq);
}

void
VirtualRadio::drainAll()
{
    // Each checkpoint's post-commit hook durably delivers at least one
    // message, and a resume lands back inside this loop.
    while (*sentSeqNv_ < *stagedSeq_)
        rt_.checkpointNow();
}

void
VirtualRadio::flush()
{
    // Drain every committed, unsent stage in order. A brown-out inside
    // radioSend abandons the drain; the cursor still points at the
    // interrupted message, so the next commit retries it (at-least-
    // once). Cursor advances within one epoch roll back together,
    // which can only cause same-sequence re-transmissions.
    // (Reentrancy through a hook-triggered checkpoint is prevented by
    // the runtime's volatile post-commit guard.)
    while (*sentSeqNv_ < *stagedSeq_) {
        const std::uint32_t seq = *sentSeqNv_ + 1;
        const Slot *slot = &ring_[seq % kRingSlots];
        mem::traceSideEvent(mem::SideEventKind::IoGuardEnter, "radio",
                            seq);
        rt_.board().radioSend(slot->bytes, slot->len);
        rt_.store(sentSeqNv_, seq);
        mem::traceSideEvent(mem::SideEventKind::IoGuardExit, "radio",
                            seq);
        // Make the cursor advance durable immediately (the runtime's
        // guard keeps this checkpoint from re-entering the hook).
        // Without this, a fixed-length power window that always dies
        // mid-drain rolls the whole drain back each time and the
        // system livelocks re-transmitting the same prefix forever;
        // with it, every window durably delivers at least one message.
        rt_.checkpointNow();
    }
}

} // namespace ticsim::tics
