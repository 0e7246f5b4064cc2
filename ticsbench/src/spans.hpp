/**
 * @file
 * In-memory spans for the traced run: one record (name, start, end,
 * parent, cell id) around each call the benchmark makes into a
 * simulator layer. Spans stay in memory and are written out once, as
 * Chrome trace-event JSON, when the run ends. Single-threaded: every
 * traced call is made from the benchmark's main thread.
 */

#ifndef TICSBENCH_SPANS_HPP
#define TICSBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ticsbench {

struct Span {
    const char *name = "";
    double startUs = 0.0; ///< since the log's epoch
    double endUs = 0.0;
    std::int32_t parent = -1; ///< index of the enclosing span, -1 = root
    std::int64_t cell = -1;   ///< operation id, -1 = not per-operation

    double durUs() const { return endUs - startUs; }
};

class SpanLog
{
  public:
    SpanLog();

    /** Open a span; @return its index (the parent of nested spans). */
    std::int32_t open(const char *name, std::int32_t parent,
                      std::int64_t cell = -1);
    void close(std::int32_t idx);

    const std::vector<Span> &spans() const { return spans_; }
    const Span &at(std::int32_t idx) const { return spans_[idx]; }

    /** Duration minus the part of it that direct children cover. */
    double selfUs(std::int32_t idx) const;

    /** Write every span as Chrome trace-event JSON. */
    bool write(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    /** Direct children's total duration, by span index. */
    std::vector<double> childUs_;
};

/** RAII span over one scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, std::int32_t parent,
               std::int64_t cell = -1)
        : log_(log), idx_(log.open(name, parent, cell))
    {
    }
    ~ScopedSpan() { log_.close(idx_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int32_t index() const { return idx_; }

  private:
    SpanLog &log_;
    std::int32_t idx_;
};

} // namespace ticsbench

#endif // TICSBENCH_SPANS_HPP
