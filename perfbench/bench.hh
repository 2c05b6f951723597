/**
 * @file
 * Building blocks of the repository benchmark (perfbench/main.cc):
 * seeded workload construction, the correctness oracle, nearest-rank
 * percentiles and the span recorder of the traced run. Everything
 * here is deterministic and free of timing so perfbench_test can pin
 * it.
 */

#ifndef SVF_PERFBENCH_BENCH_HH
#define SVF_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/runner.hh"

namespace svf::perfbench
{

/** splitmix64 stream: the only randomness the benchmark draws. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed) {}

    std::uint64_t next();

    /** Uniform in [0, n) (n > 0). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

  private:
    std::uint64_t state;
};

/** Fisher-Yates with Rng, identical on every platform. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** @name Statistics */
/// @{

/**
 * Nearest-rank percentile (p in (0, 100]) of @p sorted ascending
 * samples: the value at 1-based rank ceil(p/100 * n). 0 when empty.
 */
double nearestRank(const std::vector<double> &sorted, double p);

/** Samples strictly above the nearest-rank @p p of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double p);

/** The tail rule: at least ten samples lie beyond the percentile. */
inline bool
tailResolved(std::size_t n, double p)
{
    return samplesBeyond(n, p) >= 10;
}

double median(std::vector<double> v);

/// @}

/** @name Traced-run spans */
/// @{

/** One recorded call into a layer. Times are seconds since t0. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;            //!< index into the log, -1 = root
    std::uint64_t id = 0;       //!< job or request id
};

/**
 * Spans of one traced run, kept in memory (thread-safe appends) and
 * written once at the end. A disabled log records nothing.
 */
class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit SpanLog(bool enabled = false);

    /** Seconds since the log was created. */
    double now() const;

    /** Record a finished span; returns its index (-1 when off). */
    int add(const std::string &name, double start, double end,
            int parent = -1, std::uint64_t id = 0);

    /** Open a span now; close it with close(). */
    int open(const std::string &name, int parent = -1,
             std::uint64_t id = 0);
    void close(int index);

    std::vector<Span> spans() const;

    /** Write {"spans": [...], "self_seconds": {...}} to @p path. */
    bool write(const std::string &path) const;

  private:
    bool on;
    Clock::time_point t0;
    mutable std::mutex m;
    std::vector<Span> log;
};

/** RAII span around one call. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, int parent = -1,
               std::uint64_t id = 0)
        : _log(log), _index(log.open(name, parent, id))
    {}
    ~ScopedSpan() { _log.close(_index); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &_log;
    int _index;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that the union of its children's intervals covers.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** selfTimes() summed by span name. */
std::map<std::string, double> selfTimeByName(
    const std::vector<Span> &spans);

/// @}

/** @name Workload definitions */
/// @{

/**
 * Every cycle-model, traffic and profile job that fig1-3, fig5-9 and
 * table3-4 plan at their default budgets, in the bench binaries'
 * submission order (503 jobs). Mirrors bench/fig*.cc and
 * bench/table*.cc; the reference digests pin the result of each job.
 */
harness::ExperimentPlan paperSweepPlan();

/** @p plan with its jobs in a seed-shuffled submission order. */
harness::ExperimentPlan shuffledPlan(const harness::ExperimentPlan &plan,
                                     std::uint64_t seed);

/** One sampled_long run: the sampled setup and its display name. */
struct SampledRun
{
    std::string name;
    harness::RunSetup setup;
};

/**
 * Every sampled_long run (each input of each chosen workload), with
 * pjobs left at 1: the caller sets it.
 */
std::vector<SampledRun> sampledPool();

/**
 * The runs of one sampled_long pass for @p seed: the whole pool in a
 * seed order. Every input runs in every pass, because drawing gcc's
 * input per seed made peak memory and pass time differ between seeds.
 */
std::vector<SampledRun> sampledRuns(std::uint64_t seed);

/** The full-detail twin of a sampled setup (sampling off). */
harness::RunSetup fullDetail(const harness::RunSetup &sampled);

/** The served_mix setup pool, most popular first. */
std::vector<harness::Job> servedPool();

/** One served_mix request: indices into servedPool(). */
using Request = std::vector<std::uint32_t>;

/**
 * The request sequence of one served_mix round for @p seed: @p count
 * requests of one to three distinct jobs drawn with Zipf popularity
 * over the pool, plus a one-job request for each setup the draws
 * missed, so every seed's round covers the whole pool.
 */
std::vector<Request> servedRequests(std::uint64_t seed,
                                    std::size_t count,
                                    std::size_t pool_size);

/// @}

/** @name Correctness oracle */
/// @{

/**
 * FNV-1a over a job value: for a cycle-model result the registry
 * counters, the sampled-estimate fields, completion, the output check
 * and the program output (per-core groups included); for traffic and
 * profile results every field.
 */
std::uint64_t digest(const harness::JobValue &value);

/** Setup key -> expected digest (reference/digests.tsv). */
using DigestTable = std::unordered_map<std::uint64_t, std::uint64_t>;

/** Setup key -> full-detail IPC of the sampled setup (ipc.tsv). */
using IpcTable = std::unordered_map<std::uint64_t, double>;

bool loadDigests(const std::string &path, DigestTable &out,
                 std::string &err);
bool loadIpc(const std::string &path, IpcTable &out, std::string &err);

/**
 * Does @p value match its reference? False with @p why on a missing
 * reference, a digest mismatch or a golden-output mismatch.
 */
bool checkResult(const DigestTable &ref, std::uint64_t key,
                 const harness::JobValue &value, std::string &why);

/// @}

/** Simulated instructions behind one result (any job kind). */
std::uint64_t simInsts(const harness::JobValue &value);

} // namespace svf::perfbench

#endif // SVF_PERFBENCH_BENCH_HH
