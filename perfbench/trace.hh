/**
 * @file
 * The benchmark's own measurement toolkit, independent of the HIPStR
 * libraries: an in-memory span recorder with per-layer self time,
 * named counters, the percentile rule, operation accounting, and the
 * result line the benchmark prints last.
 *
 * Spans are recorded only around calls the benchmark makes into the
 * system's public entry points; nothing here reaches inside src/.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** Host time in seconds on a monotonic clock. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One recorded span. Times are seconds on nowSeconds()'s clock. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = a root span
    uint32_t run = 0;    ///< workload run id (setup, pass, probes)
    std::string name;    ///< "<layer>.<what>"
    double start = 0;
    double end = 0;

    double duration() const { return end - start; }
    /** The layer: the name up to its first '.'. */
    std::string layer() const;
};

/**
 * Thread-safe span and counter store. A null Tracer pointer is the
 * untraced mode: every helper below accepts one and does nothing.
 */
class Tracer
{
  public:
    /** Open a span; returns its id. @p parent 0 = the calling
     *  thread's innermost open span (or a root if there is none). */
    uint64_t open(const std::string &name, uint64_t parent = 0);
    /** Close span @p id (must be the innermost open on this thread). */
    void close(uint64_t id);

    /** Add @p v to counter @p name. */
    void count(const std::string &name, double v);
    /** Append one sample (e.g. a round gap in ms) to @p name. */
    void sample(const std::string &name, double v);

    /** Runs: spans opened after setRun(r) carry run id r. */
    void setRun(uint32_t run);

    /** Snapshot accessors (call with no span open). @{ */
    std::vector<Span> spans() const;
    double counter(const std::string &name) const;
    bool hasCounter(const std::string &name) const;
    std::vector<double> samples(const std::string &name) const;
    /** @} */

  private:
    mutable std::mutex _mutex;
    std::vector<Span> _spans; ///< index = id - 1
    std::map<std::string, double> _counters;
    std::map<std::string, std::vector<double>> _samples;
    uint32_t _run = 0;
};

/** RAII span; a no-op with a null tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const std::string &name, uint64_t parent = 0)
        : _t(t), _id(t != nullptr ? t->open(name, parent) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (_t != nullptr)
            _t->close(_id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return _id; }

  private:
    Tracer *_t;
    uint64_t _id;
};

/** Counter helper that tolerates a null tracer. */
inline void
count(Tracer *t, const std::string &name, double v)
{
    if (t != nullptr)
        t->count(name, v);
}

/**
 * Self time of every span: its duration minus the part of its
 * interval that its direct children cover (overlapping children, as
 * from parallel cells, are counted once). Indexed like @p spans.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Self time summed per layer over the spans whose run is in @p runs
 *  (all runs when empty). */
std::map<std::string, double>
selfTimeByLayer(const std::vector<Span> &spans,
                const std::vector<uint32_t> &runs = {});

/** Total duration per span name over the spans in @p runs (all when
 *  empty), and the number of such spans. @{ */
double totalDuration(const std::vector<Span> &spans,
                     const std::string &name,
                     const std::vector<uint32_t> &runs = {});
size_t spanCount(const std::vector<Span> &spans, const std::string &name,
                 const std::vector<uint32_t> &runs = {});
/** @} */

/**
 * The q-quantile (0 < q < 1) of @p samples by the nearest-rank rule,
 * reported only when at least ten samples lie beyond it; nullopt
 * otherwise (a p99 therefore needs at least 1000 samples).
 */
std::optional<double> percentile(std::vector<double> samples, double q);

/** Median of a non-empty sample (mean of the middle two when even). */
double median(std::vector<double> v);

/**
 * Operation accounting. Operations are the units a workload offers
 * the system (figure cells, requests) plus the benchmark's own
 * verification steps (a replay, a determinism comparison). Each
 * counts once in attempted(); one that fails counts once in failed(),
 * never more than were attempted. Failures keep their messages.
 */
class OpsLedger
{
  public:
    /** Account @p n attempted operations of which @p failed failed;
     *  @p what names the failure when failed > 0. */
    void record(uint64_t n, uint64_t failed, const std::string &what);
    /** One verification operation: fails, with message @p what, when
     *  @p ok is false. Returns @p ok. */
    bool check(bool ok, const std::string &what);

    uint64_t attempted() const { return _attempted; }
    uint64_t failed() const { return _failed; }
    bool correct() const { return _failed == 0 && _attempted > 0; }
    const std::vector<std::string> &failures() const { return _msgs; }

  private:
    uint64_t _attempted = 0;
    uint64_t _failed = 0;
    std::vector<std::string> _msgs;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Shortest round-trip decimal form of @p v (JSON number). */
std::string jsonNumber(double v);

/**
 * The result line: {"correct", "attempted", "failed", "metrics"},
 * one JSON object on one line.
 */
void writeResultLine(std::ostream &os, const OpsLedger &ops,
                     const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
