/**
 * @file
 * Memory-consistency trace channel.
 *
 * The analysis subsystem (src/analysis/) observes every instrumented
 * non-volatile access in the simulator through one AccessSink, the
 * `sink` role of the calling thread's mem::MemPort (port.hpp): the
 * nv<T> accessors and pointer-store paths report reads and writes at
 * the same dispatch point that runs the runtime's MemHooks, the
 * versioning machinery (undo logs, snapshot checkpoints, privatized
 * channels) reports when the original bytes of a location have been
 * made recoverable, and the Board reports the interval boundaries
 * (power-on and commit) between which the Surbatovich consistency
 * condition is evaluated.
 *
 * The forwarding helpers (traceRead, traceWrite, ...) live in
 * port.hpp. When no sink is attached (the default, and all normal
 * benchmark / test runs) every trace call is a null-pointer test and
 * nothing else; tracing changes no modeled costs and no runtime
 * behaviour.
 */

#ifndef TICSIM_MEM_TRACE_HPP
#define TICSIM_MEM_TRACE_HPP

#include <cstdint>

namespace ticsim::mem {

/**
 * Non-memory observation points the static verifier cares about:
 * timestamp traffic, peripheral effects, and scheduling anchors.
 * These ride on the same sink as the NV access stream so one observer
 * sees both in program order.
 */
enum class SideEventKind : std::uint8_t {
    TimeRead,        ///< persistent-clock read (Board::deviceNow)
    TimedAssign,     ///< timed assignment committed; id = variable
    TimedUse,        ///< timed datum consumed; id = variable
    TimedCheck,      ///< freshness check evaluated; id = variable
    PeripheralSend,  ///< physical (externally visible) transmission
    PeripheralStage, ///< message staged in NV for a guarded drain
    IoGuardEnter,    ///< post-commit guarded-drain window opens
    IoGuardExit,     ///< post-commit guarded-drain window closes
    TaskDispatch,    ///< task runtime dispatching task `id`
    CkptCommitStart, ///< checkpoint commit protocol begins; id = runtime
    BootRestore,     ///< boot-time restore from a checkpoint begins
};

/**
 * One side event. @p id (may be null) names the subject — a timed
 * variable, a peripheral, a task — and must outlive the sink call;
 * sinks that keep it copy the string. u0/u1 carry kind-specific
 * payloads (lifetime ns, payload bytes, ...).
 */
struct SideEvent {
    SideEventKind kind;
    const char *id = nullptr;
    std::uint64_t u0 = 0;
    std::uint64_t u1 = 0;
};

/**
 * Observer of instrumented NV traffic and consistency-interval
 * boundaries. All pointers are host addresses; implementations that
 * care about modeled addresses translate via NvRam::addrOf().
 */
class AccessSink
{
  public:
    virtual ~AccessSink() = default;

    /** An instrumented read of @p bytes at @p p is about to happen. */
    virtual void memRead(const void *p, std::uint32_t bytes) = 0;

    /** An instrumented write of @p bytes at @p p is about to happen. */
    virtual void memWrite(const void *p, std::uint32_t bytes) = 0;

    /**
     * The current contents of [p, p+bytes) have been versioned: a
     * reboot (or rollback) before the next commit restores them. Undo
     * logs report this per append; snapshot checkpointers report their
     * whole tracked regions at every commit/restore; task channels
     * report privatized writes (the committed copy is never at risk).
     */
    virtual void memVersioned(const void *p, std::uint32_t bytes) = 0;

    /** Power is back; a new boot (and consistency interval) begins. */
    virtual void powerOn() = 0;

    /**
     * A runtime committed forward progress (checkpoint commit, task
     * transition, restart-from-main); the current interval's writes
     * can no longer be lost to a reboot.
     */
    virtual void commit() = 0;

    /**
     * A non-memory observation (time read, peripheral effect, task
     * dispatch, ...). Default no-op so sinks that only care about the
     * NV stream — the dynamic checker — ignore it for free.
     */
    virtual void sideEvent(const SideEvent & /*ev*/) {}
};

} // namespace ticsim::mem

#endif // TICSIM_MEM_TRACE_HPP
