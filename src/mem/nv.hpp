/**
 * @file
 * Typed accessors for non-volatile application globals.
 *
 * On the real platform, TICS's source-instrumentation pass rewrites
 * every store to .data/.bss (and every pointer store) into a call into
 * the memory manager. Here the same surface is expressed in the type
 * system: application globals are nv<T>, and assignments route through
 * the thread's mem::MemPort (port.hpp) — the runtime's MemHooks first,
 * before the byte is changed, so an undo log can capture the old
 * value.
 */

#ifndef TICSIM_MEM_NV_HPP
#define TICSIM_MEM_NV_HPP

#include <cstring>
#include <type_traits>

#include "mem/nvram.hpp"
#include "mem/port.hpp"
#include "support/logging.hpp"

namespace ticsim::mem {

/**
 * A T stored in the simulated FRAM arena. All mutation goes through
 * the thread's memory port. Trivially-copyable T only (this is firmware
 * state, not a general container).
 */
template <typename T>
class nv
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "nv<T> holds raw firmware state");

  public:
    /** Slot width as the arena's 32-bit size type. */
    static constexpr std::uint32_t kBytes =
        static_cast<std::uint32_t>(sizeof(T));

    /** Allocate a slot in @p ram under @p name, default-initialized. */
    nv(NvRam &ram, const std::string &name)
    {
        const Addr a = ram.allocate(name, kBytes, alignof(T));
        slot_ = reinterpret_cast<T *>(ram.hostPtr(a));
        std::memset(static_cast<void *>(slot_), 0, sizeof(T));
    }

    nv(NvRam &ram, const std::string &name, const T &init)
        : nv(ram, name)
    {
        std::memcpy(static_cast<void *>(slot_), &init, sizeof(T));
    }

    nv(const nv &) = delete;
    nv &operator=(const nv &) = delete;

    /** Instrumented read. */
    operator T() const
    {
        traceRead(slot_, kBytes);
        T v;
        std::memcpy(&v, slot_, sizeof(T));
        return v;
    }

    T get() const { return static_cast<T>(*this); }

    /** Instrumented write. The trace event follows preWrite so that a
     *  runtime's versioning is visible to the sink before the write. */
    nv &operator=(const T &v)
    {
        hooksPreWrite(slot_, kBytes);
        store(StoreSite::AppGlobal, slot_, &v, kBytes);
        return *this;
    }

    nv &operator+=(const T &v) { return *this = get() + v; }
    nv &operator-=(const T &v) { return *this = get() - v; }
    nv &operator++() { return *this = get() + T(1); }

    /**
     * Raw slot pointer, for passing to pointer-based legacy code. Any
     * store through it must go via the runtime's instrumented store()
     * (mirroring the paper's pointer-write instrumentation).
     */
    T *raw() { return slot_; }
    const T *raw() const { return slot_; }

  private:
    T *slot_;
};

/**
 * A fixed-size array of T in the FRAM arena with instrumented element
 * access.
 */
template <typename T, std::uint32_t N>
class nvArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "nvArray<T> holds raw firmware state");

  public:
    /** Element width as the arena's 32-bit size type. */
    static constexpr std::uint32_t kElemBytes =
        static_cast<std::uint32_t>(sizeof(T));

    nvArray(NvRam &ram, const std::string &name)
    {
        const Addr a = ram.allocate(name, kElemBytes * N, alignof(T));
        slots_ = reinterpret_cast<T *>(ram.hostPtr(a));
        std::memset(static_cast<void *>(slots_), 0, sizeof(T) * N);
    }

    nvArray(const nvArray &) = delete;
    nvArray &operator=(const nvArray &) = delete;

    static constexpr std::uint32_t size() { return N; }

    T get(std::uint32_t i) const
    {
        TICSIM_ASSERT(i < N, "index %u", i);
        traceRead(slots_ + i, kElemBytes);
        return slots_[i];
    }

    void set(std::uint32_t i, const T &v)
    {
        TICSIM_ASSERT(i < N, "index %u", i);
        hooksPreWrite(slots_ + i, kElemBytes);
        store(StoreSite::AppGlobal, slots_ + i, &v, kElemBytes);
    }

    T *raw() { return slots_; }
    const T *raw() const { return slots_; }

  private:
    T *slots_;
};

} // namespace ticsim::mem

#endif // TICSIM_MEM_NV_HPP
