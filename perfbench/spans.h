/**
 * @file
 * In-memory span recorder for the traced benchmark runs.
 *
 * Spans are recorded only by the benchmark's own code, around each
 * call it makes into a layer's public functions; the library itself is
 * not instrumented. Each span has a name, a start, an end, a parent
 * span and a kernel or request id. Spans stay in memory until the run
 * ends and are then written as one chrome://tracing document (the
 * format of core/trace_events), with the parent and id in "args".
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/** One recorded span; times are microseconds since the log began. */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    /** Index of the enclosing span, or -1 for a root. */
    int parent = -1;
    /** Kernel or request id (-1 when the span covers many). */
    std::int64_t id = -1;
};

/**
 * Single-threaded span log. Nested spans must close in LIFO order,
 * which Scope guarantees; spans recorded after the fact (add) may
 * overlap their siblings and are excluded from self-time accounting
 * of their parent.
 */
class SpanLog
{
  public:
    SpanLog();

    /** Microseconds since construction. */
    double nowUs() const;

    /** A nowSec() instant in the log's microsecond timebase. */
    double
    toUs(double sec) const
    {
        return (sec - origin_) * 1e6;
    }

    /** Open a span under the innermost open one. @return its index. */
    int open(std::string name, std::int64_t id = -1);

    /** Close span @p index (must be the innermost open one). */
    void close(int index);

    /** Rename span @p index (e.g. once a lookup turned out a miss). */
    void
    rename(int index, std::string name)
    {
        spans_[static_cast<std::size_t>(index)].name = std::move(name);
    }

    /**
     * Record a finished span under @p parent. Such spans may overlap
     * (concurrent requests) and so never count as their parent's
     * children in selfSecByName().
     */
    void add(std::string name, double startUs, double endUs, int parent,
             std::int64_t id);

    /**
     * Self time per span name in seconds: each opened span's duration
     * minus the durations of the opened spans directly inside it.
     */
    std::map<std::string, double> selfSecByName() const;

    /** Write the chrome-trace document; @return false on I/O failure. */
    bool write(const std::string &path) const;

    /** RAII span: open on construction, close on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name, std::int64_t id = -1)
            : log_(log), index_(log.open(std::move(name), id))
        {
        }
        ~Scope() { log_.close(index_); }

        void
        rename(std::string name)
        {
            log_.rename(index_, std::move(name));
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        int index_;
    };

  private:
    double origin_;
    std::vector<Span> spans_;
    /** Whether span i was recorded with add() (overlap allowed). */
    std::vector<bool> async_;
    std::vector<int> stack_;
};

} // namespace pb

#endif // PERFBENCH_SPANS_H
