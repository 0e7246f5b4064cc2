/**
 * @file
 * The memory port: the one per-thread attachment point through which
 * instrumented non-volatile traffic is observed and intercepted.
 *
 * TICS's instrumentation pass rewrites every NV store into a call into
 * the memory manager; the simulator models that call site with four
 * roles of one MemPort: the runtime's MemHooks (undo logging,
 * versioning; attached by Board::continueRun while application code
 * runs), the analysis AccessSink (trace.hpp), the torn-write StoreGate
 * (store_gate.hpp) and the explorer's WriteJournal (journal.hpp).
 *
 * The port is thread-local: every simulated Board lives on exactly one
 * host thread, and the sweep engine runs many Boards on concurrent
 * threads, each with its own attachments. With nothing attached (the
 * default, and every normal benchmark or test run with a hooks-free
 * runtime) each helper below is one inlined null test, plus the memcpy
 * for stores. With something attached, a store runs one ordered
 * dispatch: hooks (nv<T>/nvArray only), then sink, then gate or
 * memcpy. None of it charges modeled cycles.
 *
 * The helpers also bump the calling thread's perf::HotCounters at the
 * same dispatch point, so "sink attached => counted NV stores ==
 * delivered memWrite events" holds by construction.
 */

#ifndef TICSIM_MEM_PORT_HPP
#define TICSIM_MEM_PORT_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "mem/journal.hpp"
#include "mem/store_gate.hpp"
#include "mem/trace.hpp"
#include "perf/counters.hpp"

namespace ticsim::mem {

/**
 * Runtime write interception, attached by the Board while application
 * code runs. With no hooks attached, nv<T> writes perform no
 * versioning (plain-C semantics: FRAM writes land directly and
 * persist).
 */
class MemHooks
{
  public:
    virtual ~MemHooks() = default;

    /**
     * Called before @p bytes at @p hostAddr are overwritten. The
     * runtime may undo-log the old contents, charge cycles, or force a
     * checkpoint.
     */
    virtual void preWrite(void *hostAddr, std::uint32_t bytes) = 0;
};

/** Everything attached to one thread's NV access path; a null role is
 *  simply not attached. */
struct MemPort {
    MemHooks *hooks = nullptr;
    AccessSink *sink = nullptr;
    StoreGate *gate = nullptr;
    WriteJournal *journal = nullptr;
};

namespace detail {
/** The calling thread's port, or null when nothing is attached (so the
 *  unattached path is one test). constinit lets every TU read it
 *  directly instead of through a TLS init wrapper. */
extern constinit thread_local const MemPort *g_port;
} // namespace detail

/** The calling thread's port (all roles null when nothing is
 *  attached). Overlaying callers copy it and replace one role. */
inline MemPort
port()
{
    const MemPort *p = detail::g_port;
    return p ? *p : MemPort{};
}

/** RAII installation of a whole port on the calling thread: roles left
 *  null in @p p are detached for the scope. */
class ScopedPort
{
  public:
    explicit ScopedPort(const MemPort &p) : port_(p), prev_(detail::g_port)
    {
        const bool any = p.hooks || p.sink || p.gate || p.journal;
        detail::g_port = any ? &port_ : nullptr;
    }
    ~ScopedPort() { detail::g_port = prev_; }

    ScopedPort(const ScopedPort &) = delete;
    ScopedPort &operator=(const ScopedPort &) = delete;

  private:
    MemPort port_;
    const MemPort *prev_;
};

// ---- sink ----------------------------------------------------------------

namespace detail {
/** Deliver one event to the attached sink, or count the fast path. */
template <typename Deliver>
inline void
toSink(perf::HotCounters &c, Deliver &&deliver)
{
    const MemPort *p = g_port;
    if (p && p->sink) {
        ++c.sinkDispatches;
        deliver(*p->sink);
    } else {
        ++c.sinkFastNull;
    }
}
} // namespace detail

inline void
traceRead(const void *p, std::uint32_t bytes)
{
    perf::HotCounters &c = perf::hot();
    ++c.nvLoads;
    c.nvLoadBytes += bytes;
    detail::toSink(c, [&](AccessSink &s) { s.memRead(p, bytes); });
}

inline void
traceWrite(const void *p, std::uint32_t bytes)
{
    perf::HotCounters &c = perf::hot();
    ++c.nvStores;
    c.nvStoreBytes += bytes;
    detail::toSink(c, [&](AccessSink &s) { s.memWrite(p, bytes); });
}

inline void
traceVersioned(const void *p, std::uint32_t bytes)
{
    perf::HotCounters &c = perf::hot();
    ++c.nvVersioned;
    c.nvVersionedBytes += bytes;
    detail::toSink(c, [&](AccessSink &s) { s.memVersioned(p, bytes); });
}

inline void
traceBoot()
{
    detail::toSink(perf::hot(), [](AccessSink &s) { s.powerOn(); });
}

inline void
traceCommit()
{
    detail::toSink(perf::hot(), [](AccessSink &s) { s.commit(); });
}

inline void
traceSideEvent(SideEventKind kind, const char *id = nullptr,
               std::uint64_t u0 = 0, std::uint64_t u1 = 0)
{
    detail::toSink(perf::hot(), [&](AccessSink &s) {
        s.sideEvent(SideEvent{kind, id, u0, u1});
    });
}

// ---- stores --------------------------------------------------------------

/** Runtime write interception ahead of an nv<T>/nvArray store. */
inline void
hooksPreWrite(void *dst, std::uint32_t bytes)
{
    const MemPort *p = detail::g_port;
    if (p && p->hooks) {
        ++perf::hot().hookDispatches;
        p->hooks->preWrite(dst, bytes);
    } else {
        ++perf::hot().hookFastNull;
    }
}

/** Write [src, src+bytes) to NV through the attached gate, or memcpy.
 *  Undo-log records and checkpoint headers use this directly: they are
 *  protocol bookkeeping, not traced application stores. */
inline void
gatedStore(StoreSite site, void *dst, const void *src,
           std::uint32_t bytes)
{
    const MemPort *p = detail::g_port;
    if (p && p->gate) {
        ++perf::hot().gateDispatches;
        p->gate->store(site, dst, src, bytes);
    } else {
        ++perf::hot().gateFastNull;
        std::memcpy(dst, src, bytes);
    }
}

/** The instrumented NV store: the sink sees the write, then the gate
 *  (or a memcpy) performs it. */
inline void
store(StoreSite site, void *dst, const void *src, std::uint32_t bytes)
{
    traceWrite(dst, bytes);
    gatedStore(site, dst, src, bytes);
}

// ---- journal -------------------------------------------------------------

/** Record a pre-image if a journal is attached. Call immediately
 *  before any raw modeled-NV write that bypasses the gate. */
inline void
journalNote(const void *dst, std::size_t bytes)
{
    const MemPort *p = detail::g_port;
    if (p && p->journal)
        p->journal->note(dst, bytes);
}

/** Mark of the attached journal (0 when none): board::Snapshot pairs
 *  this with its host-state capture so restore() can roll NV back. */
inline std::size_t
journalMark()
{
    const MemPort *p = detail::g_port;
    return p && p->journal ? p->journal->mark() : 0;
}

/** Roll the attached journal (if any) back to @p m. */
inline void
journalUndoTo(std::size_t m)
{
    const MemPort *p = detail::g_port;
    if (p && p->journal)
        p->journal->undoTo(m);
}

} // namespace ticsim::mem

#endif // TICSIM_MEM_PORT_HPP
