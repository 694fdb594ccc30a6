/**
 * @file
 * Measurement plumbing shared by every perfbench workload: the run
 * report (metrics, sample counts and the harness self-checks that
 * fail a run loudly), exact percentiles with the ten-samples-beyond
 * rule, the in-memory span tracer with Chrome trace-event output,
 * /proc readers for threads, per-thread CPU time and peak RSS, and
 * the host/build fingerprint every result is stamped with.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p from to @p to. */
inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Seconds from @p from to @p to. */
inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/**
 * Nearest-rank percentile: the smallest sample with at least
 * @p q of the samples at or below it.  0 for an empty set.
 */
double percentile(std::vector<double> samples, double q);

/** Samples strictly beyond the nearest-rank @p q percentile of @p n. */
std::size_t samplesBeyond(std::size_t n, double q);

/** Fewest samples beyond a percentile before it may be reported. */
constexpr std::size_t kMinSamplesBeyond = 10;

/**
 * One run's outcome: named metrics with units, the sample count
 * behind each percentile, the attempted/completed/failed accounting
 * and every harness self-check that failed.  print() writes the
 * sample counts and checks to stdout and ends with the one-line JSON
 * result.
 */
class Report
{
  public:
    /** Record a metric (later values of the same name replace it). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /**
     * Record the nearest-rank @p q percentile of @p samples under
     * @p name.  Fails the run when fewer than kMinSamplesBeyond
     * samples lie beyond it; an empty set records 0 and fails too
     * unless @p may_be_idle (a layer that does no work in this
     * workload).
     */
    void percentileMetric(const std::string &name,
                          const std::vector<double> &samples, double q,
                          const std::string &unit,
                          bool may_be_idle = false);

    /** Record how many samples stand behind a reported figure. */
    void sampleCount(const std::string &name, std::size_t n);

    /** Fail the run with @p message unless @p ok. */
    void check(bool ok, const std::string &message);

    /** The accounting the result line carries. */
    void setAccounting(std::uint64_t attempted, std::uint64_t completed,
                       std::uint64_t failed);

    /** Outputs disagreed with the oracle. */
    void setOutputsCorrect(bool ok) { outputsOk = ok; }

    bool harnessOk() const { return failures.empty(); }
    bool correct() const { return outputsOk && failures.empty(); }

    /** Value of a recorded metric (0 when absent). */
    double value(const std::string &name) const;

    const std::map<std::string, std::pair<double, std::string>> &
    metrics() const
    {
        return metrics_;
    }

    /**
     * Print the sample counts, every failed check, and last the
     * result line holding exactly the metrics named in @p keep.
     */
    void print(const std::vector<std::string> &keep) const;

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::map<std::string, std::size_t> samples_;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool outputsOk = true;
};

/**
 * In-memory span recorder.  Spans carry a name, start and end, the
 * id of the span that caused them (0 = none) and a stream id; they
 * are only kept when the tracer is enabled, so an untraced run pays
 * one branch per call.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t stream = 0;
    };

    explicit Tracer(bool enabled = false) : on(enabled) {}

    /**
     * Reserve a span id now, for a span recorded later whose children
     * name it as their parent (0 when disabled).
     */
    std::uint64_t reserve() { return on ? nextId++ : 0; }

    /**
     * Record a finished span under @p id (0 = assign a new one).
     * @return the span's id (0 when disabled)
     */
    std::uint64_t record(const char *name, Clock::time_point start,
                         Clock::time_point end, std::uint64_t stream,
                         std::uint64_t parent = 0, std::uint64_t id = 0);

    /** Durations in ms of every span named @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write the spans as Chrome trace-event JSON ("X" events, one
     * track per stream) with @p metadata as top-level otherData.
     * @return false when the file cannot be written
     */
    bool writeChromeTrace(const std::string &path,
                          const std::map<std::string, std::string>
                              &metadata) const;

  private:
    bool on;
    std::uint64_t nextId = 1;
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans_;
};

// -- Process introspection (Linux /proc) -------------------------------

/** Thread ids of this process. */
std::vector<int> threadIds();

/** CPU seconds thread @p tid has run so far (0 if it is gone). */
double threadCpuSeconds(int tid);

/** Peak resident set size (VmHWM) in MiB. */
double peakRssMb();

/** Online CPUs this process may run on. */
unsigned availableCpus();

// -- Fingerprint ----------------------------------------------------------

/** The build type this binary was compiled as. */
std::string buildType();

/**
 * Host and build fingerprint as a JSON object: CPU model, SIMD level
 * the kernels dispatch to, cache sizes, cores, source id (the git sha
 * or source digest run.py passes in PERFBENCH_SOURCE_ID), build type,
 * flags and compiler.
 */
std::string fingerprintJson();

/** JSON string literal of @p s (quoted and escaped). */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
