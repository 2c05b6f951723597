/**
 * @file
 * The repository benchmark's main program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--ref DIR] [--out DIR] [--commit SHA] [--spawn-ns T]
 *             [--setup-only 1]
 *   perfbench --regen DIR
 *
 * Runs one workload (paper_sweep, sampled_long or served_mix) for
 * about S seconds of timed work, checks every simulated result
 * against the committed reference digests, and prints one JSON line
 * with the value of each measured metric by name: the end-to-end
 * metrics (--trace 0) or the per-layer metrics (--trace 1).
 * BENCHMARK.json is the one list of metrics and units; run.py adds
 * the units from it. A traced run measures an untraced leg and a
 * traced leg of S/2 seconds each, so it can report its own overhead.
 *
 * Set-up runs from process start to the first timed pass. --spawn-ns
 * is the CLOCK_MONOTONIC time, in nanoseconds, at which the parent
 * spawned this process; without it set-up starts at static
 * initialisation. --setup-only 1 stops where the first timed pass
 * would start and reports setup_s alone. --regen recomputes the
 * reference digests and full-detail IPCs into DIR.
 * perfbench/README.md describes the workloads and every metric.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "bench.hh"
#include "ckpt/result_cache.hh"
#include "harness/experiment.hh"
#include "harness/prof.hh"
#include "harness/runner.hh"
#include "serve/client.hh"
#include "serve/json.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sim/emulator.hh"
#include "workloads/registry.hh"

using namespace svf;
using namespace svf::perfbench;
namespace fs = std::filesystem;
namespace prof = svf::harness::prof;

namespace
{

using Clock = std::chrono::steady_clock;

/** Start of set-up: static initialisation, or --spawn-ns when given. */
Clock::time_point ProcessStart = Clock::now();

/**
 * Fewest timed passes of a leg: rates are medians over passes, and a
 * paper_sweep pass lasts about 7 s on 4 cores, so time alone would
 * leave it with two or three.
 */
constexpr std::size_t MinPasses = 5;

/** Requests of one served_mix round (each round gets a fresh daemon). */
constexpr std::size_t ServedRoundRequests = 2500;

/** Emulator::run budget cap of the sim.step_mips probe. */
constexpr std::uint64_t StepProbeInsts = 3'000'000;

double
since(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;     // ru_maxrss is in KiB
}

unsigned
nproc()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/** Metric name -> measured value. */
using Metrics = std::map<std::string, double>;

/** Run-wide inputs. */
struct Ctx
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;
    std::string out = ".bench_out";
    DigestTable ref;
    IpcTable ipc;
};

/** What one leg (traced or untraced) of a workload measured. */
struct Leg
{
    double setup = 0.0;             //!< process start to first timed pass
    double wall = 0.0;              //!< timed seconds, all passes
    std::size_t passes = 0;         //!< fixed units of work completed
    std::uint64_t passInsts = 0;    //!< simulated insts of one pass
    std::uint64_t ops = 0;          //!< operations completed (timed)
    std::vector<double> latency;    //!< seconds per operation
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double ipcErrPct = 0.0;
    Metrics layer;                  //!< traced leg only
    std::vector<double> passWall;   //!< per pass: the medians' inputs
    std::vector<double> passCpu;    //!< process CPU seconds per pass
    std::uint64_t passOps = 0;      //!< operations of one pass

    void
    addPass(double pass_wall, double pass_cpu, std::uint64_t pass_ops)
    {
        wall += pass_wall;
        ++passes;
        ops += pass_ops;
        passOps = pass_ops;
        passWall.push_back(pass_wall);
        passCpu.push_back(pass_cpu);
    }
};

/**
 * The first leg's set-up ends here, right before its first timed
 * pass. True when the run stops at this point (--setup-only).
 */
bool
setupDone(const Ctx &ctx, Leg &leg, bool first_leg)
{
    if (!first_leg)
        return false;
    leg.setup = since(ProcessStart);
    return ctx.setupOnly;
}

void
verify(const Ctx &ctx, std::uint64_t key, const harness::JobValue &value,
       const std::string &name, Leg &leg)
{
    ++leg.attempted;
    std::string why;
    if (checkResult(ctx.ref, key, value, why))
        return;
    if (++leg.failed <= 5) {
        std::fprintf(stderr, "perfbench: %s (%016llx): %s\n",
                     name.c_str(), (unsigned long long)key, why.c_str());
    }
}

/** Sum and count of span durations by name. */
std::map<std::string, std::pair<double, std::size_t>>
spanTotals(const SpanLog &log)
{
    std::map<std::string, std::pair<double, std::size_t>> out;
    for (const Span &s : log.spans()) {
        auto &t = out[s.name];
        t.first += s.end - s.start;
        ++t.second;
    }
    return out;
}

/** Mean duration of span @p name in @p scale units (0 when absent). */
double
spanMean(const std::map<std::string, std::pair<double, std::size_t>> &t,
         const std::string &name, double scale)
{
    auto it = t.find(name);
    if (it == t.end() || it->second.second == 0)
        return 0.0;
    return it->second.first / double(it->second.second) * scale;
}

/** uarch/core/mem counts over distinct cycle-model results. */
void
addCounts(Metrics &m, const std::vector<const harness::JobValue *> &vals)
{
    for (const harness::JobValue *v : vals) {
        const auto *r = std::get_if<harness::RunResult>(v);
        if (!r)
            continue;
        m["uarch.detailed_insts"] +=
            double(r->core.committed + r->sampled.warmupInsts);
        m["uarch.cycles"] += double(r->core.cycles);
        m["uarch.squashes"] += double(r->core.squashes);
        m["uarch.lsq_forwards"] += double(r->core.lsqForwards);
        m["uarch.disambig_scan_steps"] +=
            double(r->core.disambigScanSteps);
        m["core.svf_refs"] +=
            double(r->svfFastLoads + r->svfFastStores +
                   r->svfReroutedLoads + r->svfReroutedStores +
                   r->svfWindowMisses);
        m["core.svf_quads_moved"] +=
            double(r->svfQuadsIn + r->svfQuadsOut);
        m["core.svf_demand_fills"] += double(r->svfDemandFills);
        m["mem.dl1_accesses"] += double(r->dl1Hits + r->dl1Misses);
        m["mem.dl1_misses"] += double(r->dl1Misses);
        m["mem.l2_misses"] += double(r->l2Misses);
        m["mem.sc_accesses"] += double(r->scHits + r->scMisses);
        if (r->sampled.enabled())
            m["sim.ff_insts"] += double(r->sampled.totalInsts);
    }
}

/** Profiler-backed layer metrics, per pass. */
void
addProfile(Metrics &m, double passes)
{
    const prof::Profiler::Report rep = prof::Profiler::instance().report();
    auto wall = [&](prof::Phase p) {
        return rep.phase[unsigned(p)].wallSeconds / passes;
    };
    auto count = [&](prof::Phase p) {
        return double(rep.phase[unsigned(p)].count) / passes;
    };
    m["harness.interval_queue_wait_s"] = wall(prof::Phase::QueueWait);
    m["harness.interval_queue_high_water"] =
        double(rep.queueDepthHighWater);
    m["harness.cache_lookup_s"] = wall(prof::Phase::CacheLookup);
    m["uarch.detailed_window_s"] = wall(prof::Phase::DetailedWindow);
    m["sim.ff_s"] = wall(prof::Phase::FastForward);
    m["ckpt.snapshot_capture_s"] = wall(prof::Phase::SnapshotCapture);
    m["ckpt.snapshot_captures"] = count(prof::Phase::SnapshotCapture);
    m["ckpt.snapshot_restore_s"] = wall(prof::Phase::SnapshotRestore);
    m["ckpt.snapshot_restores"] = count(prof::Phase::SnapshotRestore);
}

/** Rates derived from counts and profiler times. */
void
addRates(Metrics &m)
{
    double dw = m["uarch.detailed_window_s"];
    if (dw > 0.0) {
        m["uarch.host_mips"] = m["uarch.detailed_insts"] / dw / 1e6;
        if (m["uarch.cycles"] > 0.0)
            m["uarch.host_ns_per_cycle"] = dw / m["uarch.cycles"] * 1e9;
    }
    if (m["sim.ff_s"] > 0.0)
        m["sim.ff_mips"] = m["sim.ff_insts"] / m["sim.ff_s"] / 1e6;
}

/** One distinct setup of a pass with its result. */
struct Item
{
    std::string name;
    harness::JobSetup setup;
    const harness::JobValue *value = nullptr;
};

/**
 * Benchmark-side spans around calls into sim (Emulator::run over the
 * workload's programs), ckpt (ResultCache::store of its results) and
 * the wire codec (render, parse, done-payload decode).
 */
void
probeLayers(const Ctx &ctx, SpanLog &spans, const std::vector<Item> &items,
            Metrics &m)
{
    // sim: one Emulator::run per distinct program, up to its budget.
    std::map<std::tuple<std::string, std::string, std::uint64_t>,
             std::uint64_t> programs;
    for (const Item &it : items) {
        std::visit([&](const auto &s) {
            const workloads::WorkloadSpec &spec =
                workloads::workload(s.workload);
            std::uint64_t scale = s.scale ? s.scale : spec.defaultScale;
            auto &budget = programs[{s.workload, s.input, scale}];
            budget = std::max(budget,
                              std::min(s.maxInsts, StepProbeInsts));
        }, it.setup);
    }
    std::uint64_t step_insts = 0;
    double step_secs = 0.0;
    for (const auto &[prog_key, budget] : programs) {
        const auto &[name, input, scale] = prog_key;
        isa::Program prog = workloads::workload(name).build(input, scale);
        sim::Emulator emu(prog);
        double t0 = spans.now();
        step_insts += emu.run(budget);
        double t1 = spans.now();
        spans.add("sim.emulator_run", t0, t1);
        step_secs += t1 - t0;
    }
    if (step_secs > 0.0)
        m["sim.step_mips"] = double(step_insts) / step_secs / 1e6;

    // ckpt: persist every result into a scratch cache.
    std::string dir = ctx.out + "/store-" + std::to_string(::getpid());
    {
        ckpt::ResultCache cache(dir);
        fs::create_directories(dir);
        for (const Item &it : items) {
            ScopedSpan span(spans, "ckpt.result_store");
            cache.store(harness::setupKey(it.setup), *it.value);
        }
    }
    fs::remove_all(dir);

    // serve: the wire codec on a one-job request per setup.
    for (const Item &it : items) {
        std::string err;
        std::string line;
        {
            ScopedSpan span(spans, "wire.encode");
            line = serve::wire::renderRunRequest(1, "",
                                                 {{it.name, it.setup}},
                                                 err);
        }
        serve::wire::Request req;
        {
            ScopedSpan span(spans, "wire.parse");
            serve::wire::parseRequest(line, req, err);
        }
        std::string hex =
            serve::wire::hexEncode(ckpt::encodeValue(*it.value));
        ScopedSpan span(spans, "wire.decode_done");
        std::vector<std::uint8_t> bytes;
        ckpt::CachedValue value;
        serve::wire::hexDecode(hex, bytes);
        ckpt::decodeValue(bytes, value);
    }
}

/** Codec and store metrics from the leg's spans. */
void
addSpanMetrics(const SpanLog &spans, Metrics &m)
{
    auto totals = spanTotals(spans);
    m["ckpt.result_store_ms"] =
        spanMean(totals, "ckpt.result_store", 1e3);
    m["serve.encode_us"] = spanMean(totals, "wire.encode", 1e6);
    m["serve.decode_us"] = spanMean(totals, "wire.parse", 1e6) +
                           spanMean(totals, "wire.decode_done", 1e6);
}

/* ------------------------------------------------------------------ */
/* paper_sweep                                                          */
/* ------------------------------------------------------------------ */

Leg
paperSweep(const Ctx &ctx, double seconds, bool traced, bool first_leg)
{
    Leg leg;
    SpanLog spans(traced);
    prof::Profiler::instance().enable(traced);
    const unsigned threads = nproc();

    int pass_span = -1;
    harness::ProgressHook hook;
    if (traced) {
        hook = [&](const harness::JobProgress &p) {
            if (p.cached)
                return;
            double end = spans.now();
            spans.add("job", end - p.wallSeconds, end, pass_span,
                      p.index);
        };
    }

    struct Ready
    {
        harness::ExperimentPlan plan;
        std::unique_ptr<harness::Runner> runner;
    };
    auto setup = [&]() {
        Ready r;
        r.plan = shuffledPlan(paperSweepPlan(), ctx.seed);
        harness::RunnerOptions opts;
        opts.jobs = threads;
        opts.progress = hook;
        r.runner = std::make_unique<harness::Runner>(opts);
        return r;
    };
    Ready r = setup();
    if (setupDone(ctx, leg, first_leg))
        return leg;

    std::vector<harness::JobOutcome> first;
    double busy = 0.0;
    std::uint64_t executions = 0, memo_hits = 0;
    do {
        // Every pass starts from a cold memo: a fresh Runner, untimed.
        if (leg.passes > 0)
            r = setup();
        double c0 = cpuSeconds();
        Clock::time_point w0 = Clock::now();
        pass_span = spans.open("pass");
        std::vector<harness::JobOutcome> out = r.runner->run(r.plan);
        spans.close(pass_span);
        leg.addPass(since(w0), cpuSeconds() - c0, out.size());

        busy += r.runner->totalWallSeconds();
        executions = r.runner->executions();
        memo_hits = r.runner->memoHits();
        for (const harness::JobOutcome &o : out) {
            verify(ctx, o.key, o.value, o.name, leg);
            if (!o.cached)
                leg.latency.push_back(o.wallSeconds);
        }
        if (first.empty())
            first = std::move(out);
        // Whole sweeps only; five of them also give the job-latency
        // p99 more than ten samples beyond it.
    } while (leg.passes < MinPasses || leg.wall < seconds);

    const harness::ExperimentPlan plan = paperSweepPlan();
    std::map<std::string, const harness::JobSetup *> setups;
    for (const harness::Job &j : plan.jobs())
        setups[j.name] = &j.setup;
    std::set<std::uint64_t> seen;
    std::vector<Item> items;
    for (const harness::JobOutcome &o : first) {
        if (!seen.insert(o.key).second)
            continue;
        leg.passInsts += simInsts(o.value);
        items.push_back({o.name, *setups.at(o.name), &o.value});
    }

    if (traced) {
        Metrics &m = leg.layer;
        double passes = double(leg.passes);
        addProfile(m, passes);
        m["harness.jobs_executed"] = double(executions);
        m["harness.memo_hits"] = double(memo_hits);
        m["harness.job_busy_s"] = busy / passes;
        m["harness.idle_frac"] = 1.0 - busy / (threads * leg.wall);
        std::vector<const harness::JobValue *> vals;
        for (const Item &it : items)
            vals.push_back(it.value);
        addCounts(m, vals);
        addRates(m);
        probeLayers(ctx, spans, items, m);
        addSpanMetrics(spans, m);
        spans.write(ctx.out + "/spans-paper_sweep-" +
                    std::to_string(ctx.seed) + ".json");
    }
    return leg;
}

/* ------------------------------------------------------------------ */
/* sampled_long                                                         */
/* ------------------------------------------------------------------ */

Leg
sampledLong(const Ctx &ctx, double seconds, bool traced, bool first_leg)
{
    Leg leg;
    std::vector<SampledRun> runs = sampledRuns(ctx.seed);
    for (SampledRun &r : runs)
        r.setup.pjobs = nproc();
    if (first_leg) {
        // One untimed pass, part of set-up: the first runs of a
        // process pay page faults and lazy allocation that every later
        // run skips, and with about 90 runs the p99 is the slowest one.
        for (const SampledRun &r : runs)
            verify(ctx, r.setup.key(), harness::runExperiment(r.setup),
                   r.name, leg);
    }
    if (setupDone(ctx, leg, first_leg))
        return leg;
    SpanLog spans(traced);
    prof::Profiler::instance().enable(traced);

    std::vector<harness::JobValue> first;
    double busy = 0.0;
    do {
        std::vector<harness::JobValue> results;
        double c0 = cpuSeconds();
        Clock::time_point w0 = Clock::now();
        int pass = spans.open("pass");
        for (std::size_t i = 0; i < runs.size(); ++i) {
            ScopedSpan job(spans, "job", pass, i);
            Clock::time_point t = Clock::now();
            results.push_back(harness::runExperiment(runs[i].setup));
            leg.latency.push_back(since(t));
            busy += leg.latency.back();
        }
        spans.close(pass);
        leg.addPass(since(w0), cpuSeconds() - c0, runs.size());

        double err_sum = 0.0;
        leg.passInsts = 0;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            std::uint64_t key = runs[i].setup.key();
            verify(ctx, key, results[i], runs[i].name, leg);
            leg.passInsts += simInsts(results[i]);
            auto ref = ctx.ipc.find(key);
            const auto &r = std::get<harness::RunResult>(results[i]);
            if (ref == ctx.ipc.end()) {
                ++leg.failed;
                std::fprintf(stderr, "perfbench: %s: no reference IPC\n",
                             runs[i].name.c_str());
                continue;
            }
            err_sum += std::abs(r.ipc() - ref->second) / ref->second;
        }
        leg.ipcErrPct = 100.0 * err_sum / double(runs.size());
        if (first.empty())
            first = std::move(results);
    } while (leg.passes < MinPasses || leg.wall < seconds);

    if (traced) {
        Metrics &m = leg.layer;
        double passes = double(leg.passes);
        addProfile(m, passes);
        const prof::Profiler::Report rep =
            prof::Profiler::instance().report();
        double work = 0.0;
        for (unsigned p = 0; p < unsigned(prof::Phase::NumPhases); ++p)
            if (p != unsigned(prof::Phase::QueueWait))
                work += rep.phase[p].wallSeconds;
        m["harness.jobs_executed"] = double(runs.size());
        m["harness.job_busy_s"] = busy / passes;
        m["harness.idle_frac"] = 1.0 - work / (nproc() * leg.wall);
        m["ckpt.ipc_err_pct"] = leg.ipcErrPct;
        std::vector<Item> items;
        std::vector<const harness::JobValue *> vals;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            items.push_back({runs[i].name, runs[i].setup, &first[i]});
            vals.push_back(&first[i]);
        }
        addCounts(m, vals);
        addRates(m);
        probeLayers(ctx, spans, items, m);
        addSpanMetrics(spans, m);
        spans.write(ctx.out + "/spans-sampled_long-" +
                    std::to_string(ctx.seed) + ".json");
    }
    return leg;
}

/* ------------------------------------------------------------------ */
/* served_mix                                                           */
/* ------------------------------------------------------------------ */

double
jsonNumber(const serve::JsonValue &obj,
           std::initializer_list<const char *> path)
{
    const serve::JsonValue *v = &obj;
    for (const char *k : path) {
        v = v->find(k);
        if (!v)
            return 0.0;
    }
    return v->isNumber() ? v->number : 0.0;
}

Leg
servedMix(const Ctx &ctx, double seconds, bool traced, bool first_leg)
{
    Leg leg;
    SpanLog spans(traced);
    prof::Profiler::instance().enable(traced);
    // Half the cores simulate and half the cores' worth of clients
    // drive the loop, so the hit path (client and connection threads)
    // does not queue behind executions for a core.
    const unsigned threads = std::max(1u, nproc() / 2);
    const std::string sock =
        ctx.out + "/served-" + std::to_string(::getpid()) + ".sock";
    const std::vector<harness::Job> pool = servedPool();
    const std::vector<Request> requests =
        servedRequests(ctx.seed, ServedRoundRequests, pool.size());

    /** A fresh daemon with every client connected and pinged. */
    struct Ready
    {
        std::string dir;
        std::unique_ptr<serve::Server> server;
        std::vector<std::unique_ptr<serve::Client>> clients;
    };
    int round_no = 0;
    auto setup = [&]() {
        auto r = std::make_unique<Ready>();
        r->dir = ctx.out + "/served-" + std::to_string(::getpid()) +
                 "-" + std::to_string(round_no++);
        fs::create_directories(r->dir + "/cache");
        serve::ServerOptions so;
        so.unixPath = sock;
        so.service.engine.threads = threads;
        so.service.engine.cacheDir = r->dir + "/cache";
        // No request journal: one file created and unlinked per
        // request made every create, rename and unlink on the host
        // file system slower run after run (143 -> 330 us), so the
        // hit-path latency drifted upward across consecutive runs.
        r->server = std::make_unique<serve::Server>(so);
        std::string err, stats;
        if (!r->server->start(err)) {
            std::fprintf(stderr, "perfbench: daemon: %s\n", err.c_str());
            std::exit(2);
        }
        for (unsigned c = 0; c < threads; ++c) {
            auto client = std::make_unique<serve::Client>();
            // The stats verb doubles as the ping.
            if (!client->connect(sock, err) || !client->stats(stats, err)) {
                std::fprintf(stderr, "perfbench: daemon at %s: %s\n",
                             sock.c_str(), err.c_str());
                std::exit(2);
            }
            r->clients.push_back(std::move(client));
        }
        return r;
    };
    auto teardown = [](std::unique_ptr<Ready> r) {
        std::string dir = r->dir;
        r->clients.clear();
        r->server->stop();
        r.reset();
        fs::remove_all(dir);
    };

    /** What the clients saw in one round. */
    struct Round
    {
        std::vector<double> latency;    //!< seconds per request
        std::vector<double> hits;       //!< ... of all-cached requests
        std::uint64_t failed = 0;
        double wall = 0.0;
        double cpu = 0.0;
    };
    std::mutex mu;      // guards the Round and executed_values
    // Each pool setup's result, as the client that executed it got it.
    std::map<std::uint32_t, harness::JobValue> executed_values;
    auto runRound = [&](Ready &r, int round_span) {
        Round round;
        std::atomic<std::size_t> next{0};
        double c0 = cpuSeconds();
        Clock::time_point w0 = Clock::now();
        std::vector<std::thread> client_threads;
        for (unsigned c = 0; c < threads; ++c) {
            client_threads.emplace_back([&, c] {
                serve::Client &client = *r.clients[c];
                std::vector<double> lat, hits;
                std::uint64_t failed = 0;
                std::map<std::uint32_t, harness::JobValue> fresh;
                std::vector<std::pair<std::string, harness::JobSetup>>
                    jobs;
                std::vector<harness::JobOutcome> outs;
                for (std::size_t i; (i = next++) < requests.size();) {
                    const Request &req = requests[i];
                    jobs.clear();
                    for (std::uint32_t j : req)
                        jobs.emplace_back(pool[j].name, pool[j].setup);
                    std::string err;
                    int span = spans.open("request", round_span, i);
                    Clock::time_point t0 = Clock::now();
                    bool ok = client.runJobs(jobs, outs, err);
                    double rtt = since(t0);
                    spans.close(span);
                    bool all_cached = true;
                    for (std::size_t k = 0; ok && k < outs.size(); ++k) {
                        ok = checkResult(ctx.ref, outs[k].key,
                                         outs[k].value, err);
                        all_cached = all_cached && outs[k].cached;
                        if (ok && !outs[k].cached)
                            fresh.emplace(req[k],
                                          std::move(outs[k].value));
                    }
                    if (!ok) {
                        if (++failed <= 5)
                            std::fprintf(stderr,
                                         "perfbench: request %zu: %s\n",
                                         i, err.c_str());
                        continue;
                    }
                    lat.push_back(rtt);
                    if (all_cached)
                        hits.push_back(rtt);
                }
                std::lock_guard<std::mutex> l(mu);
                round.latency.insert(round.latency.end(), lat.begin(),
                                     lat.end());
                round.hits.insert(round.hits.end(), hits.begin(),
                                  hits.end());
                round.failed += failed;
                executed_values.merge(fresh);
            });
        }
        for (std::thread &t : client_threads)
            t.join();
        round.wall = since(w0);
        round.cpu = cpuSeconds() - c0;
        if (round.failed)
            std::fprintf(stderr, "perfbench: %llu request(s) failed\n",
                         (unsigned long long)round.failed);
        leg.attempted += requests.size();
        leg.failed += round.failed;
        return round;
    };

    std::unique_ptr<Ready> r = setup();
    if (first_leg) {
        // One untimed round, part of set-up: it warms the process (page
        // faults, lazy allocation) the way later rounds find it.
        runRound(*r, -1);
        teardown(std::move(r));
        r = setup();
    }
    if (setupDone(ctx, leg, first_leg)) {
        teardown(std::move(r));
        return leg;
    }

    // Per-round daemon statistics (stats verb) and client-side facts.
    std::vector<double> exec_p99, queue_p99, util, hit_rtt;
    double executed = 0, memo = 0, attached = 0, rejected = 0;
    double lookups = 0, engine_busy = 0;
    do {
        if (!r)
            r = setup();      // untimed: every round starts cold
        int round_span = spans.open("round");
        Round round = runRound(*r, round_span);
        spans.close(round_span);
        leg.addPass(round.wall, round.cpu, requests.size());
        leg.latency.insert(leg.latency.end(), round.latency.begin(),
                           round.latency.end());
        hit_rtt.insert(hit_rtt.end(), round.hits.begin(),
                       round.hits.end());

        std::string stats, err;
        serve::JsonValue st;
        if (!r->clients[0]->stats(stats, err) ||
            !serve::parseJson(stats, st, err)) {
            std::fprintf(stderr, "perfbench: stats: %s\n", err.c_str());
            ++leg.failed;
        }
        executed += jsonNumber(st, {"executed"});
        memo += jsonNumber(st, {"memo_hits"}) +
                jsonNumber(st, {"disk_hits"});
        attached += jsonNumber(st, {"inflight_attached"});
        rejected += jsonNumber(st, {"rejected"});
        lookups += jsonNumber(st, {"executed"}) +
                   jsonNumber(st, {"memo_hits"}) +
                   jsonNumber(st, {"disk_hits"}) +
                   jsonNumber(st, {"inflight_attached"});
        engine_busy += jsonNumber(st, {"wall_total_seconds"});
        util.push_back(jsonNumber(st, {"worker_utilization"}));
        exec_p99.push_back(jsonNumber(st, {"latency", "execute", "p99"}));
        queue_p99.push_back(
            jsonNumber(st, {"latency", "queue_wait", "p99"}));
        teardown(std::move(r));
    } while (leg.passes < MinPasses || leg.wall < seconds);

    // A round's requests cover the whole pool, so every setup executes
    // once a round and this count is the same for every seed.
    for (const auto &[j, v] : executed_values)
        leg.passInsts += simInsts(v);

    if (traced) {
        Metrics &m = leg.layer;
        double rounds = double(leg.passes);
        addProfile(m, rounds);
        m["harness.jobs_executed"] = executed / rounds;
        m["harness.memo_hits"] = memo / rounds;
        m["harness.job_busy_s"] = engine_busy / rounds;
        m["harness.idle_frac"] =
            1.0 - engine_busy / (threads * leg.wall);
        m["harness.engine_queue_wait_p99_ms"] = median(queue_p99) * 1e3;
        m["serve.hit_rtt_ms"] = median(hit_rtt) * 1e3;
        m["serve.exec_p99_ms"] = median(exec_p99) * 1e3;
        m["serve.hit_rate"] =
            lookups > 0.0 ? (memo + attached) / lookups : 0.0;
        m["serve.worker_util"] = median(util);
        m["serve.executed"] = executed / rounds;
        m["serve.inflight_attached"] = attached / rounds;
        m["serve.rejected"] = rejected / rounds;
        std::vector<Item> items;
        std::vector<const harness::JobValue *> vals;
        for (const auto &[j, v] : executed_values) {
            items.push_back({pool[j].name, pool[j].setup, &v});
            vals.push_back(&v);
        }
        addCounts(m, vals);
        addRates(m);
        probeLayers(ctx, spans, items, m);
        addSpanMetrics(spans, m);
        spans.write(ctx.out + "/spans-served_mix-" +
                    std::to_string(ctx.seed) + ".json");
    }
    return leg;
}

/* ------------------------------------------------------------------ */

Leg
runLeg(const Ctx &ctx, double seconds, bool traced, bool first_leg)
{
    if (ctx.workload == "paper_sweep")
        return paperSweep(ctx, seconds, traced, first_leg);
    if (ctx.workload == "sampled_long")
        return sampledLong(ctx, seconds, traced, first_leg);
    return servedMix(ctx, seconds, traced, first_leg);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    }
    return "unknown";
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    out += serve::jsonEscape(s);
    out += '"';
    return out;
}

/** Recompute every reference digest and full-detail IPC into @p dir. */
int
regen(const std::string &dir)
{
    // Digested jobs first (every setup any workload can draw), then
    // the full-detail twins of the sampled runs.
    harness::ExperimentPlan plan = paperSweepPlan();
    for (const harness::Job &j : servedPool())
        std::visit([&](const auto &s) { plan.add(j.name, s); }, j.setup);
    const std::vector<SampledRun> sampled = sampledPool();
    for (const SampledRun &r : sampled)
        plan.add(r.name, r.setup);
    const std::size_t digest_jobs_end = plan.size();
    for (const SampledRun &r : sampled)
        plan.add(r.name + "/full", fullDetail(r.setup));

    harness::RunnerOptions opts;
    opts.jobs = nproc();
    opts.progress = harness::statusProgress();
    harness::Runner runner(opts);
    const std::vector<harness::JobOutcome> out = runner.run(plan);

    fs::create_directories(dir);
    std::ofstream dig(dir + "/digests.tsv");
    dig << "# setup key\tFNV digest of the result\tjob "
           "(written by perfbench --regen)\n";
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < digest_jobs_end; ++i) {
        if (!seen.insert(out[i].key).second)
            continue;
        if (const auto *r = std::get_if<harness::RunResult>(&out[i].value);
            r && !r->outputOk) {
            std::fprintf(stderr, "perfbench: %s: golden output "
                                 "mismatch\n", out[i].name.c_str());
            return 1;
        }
        char row[64];
        std::snprintf(row, sizeof(row), "%016llx\t%016llx\t",
                      (unsigned long long)out[i].key,
                      (unsigned long long)digest(out[i].value));
        dig << row << out[i].name << "\n";
    }

    std::ofstream ipc(dir + "/ipc.tsv");
    ipc << "# sampled setup key\tfull-detail IPC\trun "
           "(written by perfbench --regen)\n";
    for (std::size_t i = 0; i < sampled.size(); ++i) {
        const auto &s = std::get<harness::RunResult>(
            out[digest_jobs_end - sampled.size() + i].value);
        const auto &f = std::get<harness::RunResult>(
            out[digest_jobs_end + i].value);
        char row[96];
        std::snprintf(row, sizeof(row), "%016llx\t%.17g\t",
                      (unsigned long long)sampled[i].setup.key(),
                      f.ipc());
        ipc << row << sampled[i].name << "\n";
        std::printf("%-16s full IPC %.4f sampled %.4f (%+.2f%%), "
                    "%llu insts\n", sampled[i].name.c_str(), f.ipc(),
                    s.ipc(), 100.0 * (s.ipc() - f.ipc()) / f.ipc(),
                    (unsigned long long)s.sampled.totalInsts);
        // Every input must fill the budget, or the seed would change
        // sampled_long's instruction total.
        if (s.completed) {
            std::fprintf(stderr, "perfbench: %s halts inside the "
                                 "sampled budget; raise its scale\n",
                         sampled[i].name.c_str());
            return 1;
        }
    }
    std::printf("%zu digests, %zu reference IPCs written to %s\n",
                seen.size(), sampled.size(), dir.c_str());
    return dig && ipc ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_sweep|sampled_long|"
                 "served_mix --seed N --seconds S --trace 0|1\n"
                 "                 [--ref DIR] [--out DIR] [--commit SHA]"
                 "\n                 [--spawn-ns T] [--setup-only 1]"
                 "\n       perfbench --regen DIR\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Ctx ctx;
    std::string ref_dir = "perfbench/reference";
    std::string commit = "unknown";
    std::string regen_dir;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage();
        std::string v = argv[++i];
        if (a == "--workload")
            ctx.workload = v;
        else if (a == "--seed")
            ctx.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            ctx.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            ctx.trace = v == "1";
        else if (a == "--ref")
            ref_dir = v;
        else if (a == "--out")
            ctx.out = v;
        else if (a == "--commit")
            commit = v;
        else if (a == "--spawn-ns")
            ProcessStart = Clock::time_point(
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::nanoseconds(
                        std::strtoll(v.c_str(), nullptr, 10))));
        else if (a == "--setup-only")
            ctx.setupOnly = v == "1";
        else if (a == "--regen")
            regen_dir = v;
        else
            return usage();
    }

    // Debug and release numbers must never be compared.
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr, "perfbench: refusing to run a '%s' build; "
                             "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    if (!regen_dir.empty())
        return regen(regen_dir);
    if (ctx.workload != "paper_sweep" && ctx.workload != "sampled_long" &&
        ctx.workload != "served_mix")
        return usage();
    if (!(ctx.seconds > 0.0) || (ctx.setupOnly && ctx.trace))
        return usage();

    std::string err;
    if (!loadDigests(ref_dir + "/digests.tsv", ctx.ref, err) ||
        !loadIpc(ref_dir + "/ipc.tsv", ctx.ipc, err)) {
        std::fprintf(stderr, "perfbench: %s (run perfbench/run.py "
                             "--regen)\n", err.c_str());
        return 2;
    }
    fs::create_directories(ctx.out);

    std::printf("# stamp {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
                "\"build_type\": %s, \"svf_tracing\": %s, "
                "\"svf_lto\": %s, \"commit\": %s, \"workload\": %s, "
                "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
                nproc(), jsonStr(cpuModel()).c_str(),
                jsonStr("gcc " __VERSION__).c_str(),
                jsonStr(PERFBENCH_BUILD_TYPE).c_str(),
                PERFBENCH_TRACING ? "true" : "false",
                PERFBENCH_LTO ? "true" : "false",
                jsonStr(commit).c_str(), jsonStr(ctx.workload).c_str(),
                (unsigned long long)ctx.seed, ctx.seconds,
                int(ctx.trace));

    Metrics metrics;
    std::uint64_t attempted = 0, failed = 0;
    if (!ctx.trace) {
        Leg leg = runLeg(ctx, ctx.seconds, false, true);
        attempted = leg.attempted;
        failed = leg.failed;
        metrics["setup_s"] = leg.setup;
        if (!ctx.setupOnly) {
            std::sort(leg.latency.begin(), leg.latency.end());
            // Rates and CPU are medians over passes: a pass the host
            // slowed down does not move them.
            double pass_wall = median(leg.passWall);
            metrics["sim_mips"] = double(leg.passInsts) / pass_wall / 1e6;
            metrics["cpu_s"] = median(leg.passCpu);
            metrics["peak_rss_mb"] = peakRssMiB();
            metrics["lat_p50_ms"] = nearestRank(leg.latency, 50) * 1e3;
            metrics["lat_p99_ms"] = nearestRank(leg.latency, 99) * 1e3;
            metrics["req_per_s"] = double(leg.passOps) / pass_wall;
            std::string walls;
            for (double w : leg.passWall)
                walls += (walls.empty() ? "" : " ") + std::to_string(w);
            std::printf("# %s: pass_wall_s=[%s] ops=%llu latency "
                        "samples=%zu beyond_p99=%zu tail_resolved=%s "
                        "ipc_err_pct=%.6f\n",
                        ctx.workload.c_str(), walls.c_str(),
                        (unsigned long long)leg.ops, leg.latency.size(),
                        samplesBeyond(leg.latency.size(), 99),
                        tailResolved(leg.latency.size(), 99) ? "yes"
                                                             : "no",
                        leg.ipcErrPct);
        }
    } else {
        Leg plain = runLeg(ctx, ctx.seconds / 2, false, true);
        Leg traced = runLeg(ctx, ctx.seconds / 2, true, false);
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;
        metrics = traced.layer;
        double per_plain = median(plain.passWall);
        metrics["trace.overhead_pct"] =
            100.0 * (median(traced.passWall) - per_plain) / per_plain;
    }

    // Names and values only: run.py takes each metric's unit from
    // BENCHMARK.json and reads a per-layer metric absent here as 0.
    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"values\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", value);
        json += std::string(first ? "" : ", ") + jsonStr(name) + ": " +
                num;
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
