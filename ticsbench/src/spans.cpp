#include "spans.hpp"

#include <cstdio>

namespace ticsbench {

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

namespace {

double
usSince(std::chrono::steady_clock::time_point epoch)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

} // namespace

std::int32_t
SpanLog::open(const char *name, std::int32_t parent, std::int64_t cell)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.cell = cell;
    s.startUs = usSince(epoch_);
    spans_.push_back(s);
    childUs_.push_back(0.0);
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
SpanLog::close(std::int32_t idx)
{
    Span &s = spans_[idx];
    s.endUs = usSince(epoch_);
    if (s.parent >= 0)
        childUs_[s.parent] += s.durUs();
}

double
SpanLog::selfUs(std::int32_t idx) const
{
    return spans_[idx].durUs() - childUs_[idx];
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%d,\"cell\":%lld}}\n",
                     i ? "," : "", s.name, s.startUs, s.durUs(), i,
                     s.parent, static_cast<long long>(s.cell));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace ticsbench
