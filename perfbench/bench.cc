#include "bench.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <variant>

#include "harness/counters.hh"
#include "harness/experiment.hh"
#include "workloads/registry.hh"

namespace svf::perfbench
{

std::uint64_t
Rng::next()
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace
{

/** 1-based nearest rank of @p p over @p n samples (n > 0). */
std::size_t
rankOf(std::size_t n, double p)
{
    // The epsilon keeps 0.99 * 100 (98.99999...) from rounding up.
    double x = std::ceil(p / 100.0 * double(n) - 1e-9);
    return std::clamp<std::size_t>(std::size_t(std::max(x, 1.0)), 1, n);
}

} // anonymous namespace

double
nearestRank(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    return sorted[rankOf(sorted.size(), p) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n ? n - rankOf(n, p) : 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

SpanLog::SpanLog(bool enabled) : on(enabled), t0(Clock::now()) {}

double
SpanLog::now() const
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

int
SpanLog::add(const std::string &name, double start, double end,
             int parent, std::uint64_t id)
{
    if (!on)
        return -1;
    std::lock_guard<std::mutex> l(m);
    log.push_back({name, start, end, parent, id});
    return int(log.size() - 1);
}

int
SpanLog::open(const std::string &name, int parent, std::uint64_t id)
{
    if (!on)
        return -1;
    double t = now();
    return add(name, t, t, parent, id);
}

void
SpanLog::close(int index)
{
    if (index < 0)
        return;
    double t = now();
    std::lock_guard<std::mutex> l(m);
    log[std::size_t(index)].end = t;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> l(m);
    return log;
}

bool
SpanLog::write(const std::string &path) const
{
    std::vector<Span> all = spans();
    std::ofstream out(path);
    if (!out)
        return false;
    char buf[256];
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\": \"%s\", \"start\": %.9f, "
                      "\"end\": %.9f, \"parent\": %d, \"id\": %llu}",
                      i ? "," : "", s.name.c_str(), s.start, s.end,
                      s.parent, (unsigned long long)s.id);
        out << buf;
    }
    out << "],\n\"self_seconds\": {";
    bool first = true;
    for (const auto &[name, secs] : selfTimeByName(all)) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9f",
                      first ? "" : ", ", name.c_str(), secs);
        out << buf;
        first = false;
    }
    out << "}}\n";
    return bool(out);
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        int p = spans[i].parent;
        if (p >= 0 && std::size_t(p) < spans.size())
            children[std::size_t(p)].push_back(i);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<double, double>> iv;
        for (std::size_t c : children[i]) {
            double a = std::max(spans[c].start, s.start);
            double b = std::min(spans[c].end, s.end);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, cur_a = 0.0, cur_b = 0.0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        self[i] = std::max(0.0, (s.end - s.start) - covered);
    }
    return self;
}

std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

namespace
{

struct Input
{
    std::string workload;
    std::string input;

    std::string display() const { return workload + "." + input; }
};

/** Table 1's benchmark/input pairs (bench::allInputs). */
std::vector<Input>
tableInputs(bool first_input_only)
{
    std::vector<Input> out;
    for (const auto &w : workloads::allWorkloads()) {
        for (const auto &in : w.inputs) {
            out.push_back({w.name, in});
            if (first_input_only)
                break;
        }
    }
    return out;
}

using Mutator = void (*)(uarch::MachineConfig &);

struct Column
{
    const char *name;
    Mutator mutate;
};

} // anonymous namespace

harness::ExperimentPlan
paperSweepPlan()
{
    const auto all = tableInputs(false);
    const auto firsts = tableInputs(true);
    harness::ExperimentPlan plan;

    // fig1 and fig3 profile at 1M instructions with 256 depth samples
    // (identical setups, so fig3 is all memo hits); fig2 keeps 512.
    for (unsigned fig : {1u, 2u, 3u}) {
        for (const Input &in : all) {
            harness::ProfileSetup s;
            s.workload = in.workload;
            s.input = in.input;
            s.maxInsts = 1'000'000;
            if (fig == 2)
                s.depthSamples = 512;
            plan.add("fig" + std::to_string(fig) + "/" + in.display(), s);
        }
    }

    // The cycle-model figures run at the Bench default of 300k.
    auto run = [](const Input &in, const uarch::MachineConfig &m) {
        harness::RunSetup s;
        s.workload = in.workload;
        s.input = in.input;
        s.maxInsts = 300'000;
        s.machine = m;
        return s;
    };

    struct Fig5Column
    {
        const char *name;
        unsigned width;
        const char *bpred;
    };
    const Fig5Column fig5[] = {
        {"4-wide", 4, "perfect"},
        {"8-wide", 8, "perfect"},
        {"16-wide", 16, "perfect"},
        {"16-wide gshare", 16, "gshare"},
    };
    for (const Input &in : firsts) {
        for (const Fig5Column &col : fig5) {
            uarch::MachineConfig m =
                harness::baselineConfig(col.width, 2, col.bpred);
            std::string name = "fig5/" + in.display() + "/" + col.name;
            plan.add(name + "/base", run(in, m));
            harness::applyInfiniteSvf(m);
            plan.add(name + "/inf_svf", run(in, m));
        }
    }

    const Column fig6[] = {
        {"128KB_L1", [](uarch::MachineConfig &m) {
             m.hier.dl1.size = 128 * 1024;
         }},
        {"no_addr_cal_op", [](uarch::MachineConfig &m) {
             m.noAddrCalcOp = true;
         }},
        {"svf_1p", [](uarch::MachineConfig &m) {
             harness::applySvf(m, 1024, 1);
         }},
        {"svf_2p", [](uarch::MachineConfig &m) {
             harness::applySvf(m, 1024, 2);
         }},
        {"svf_16p", [](uarch::MachineConfig &m) {
             harness::applySvf(m, 1024, 16);
         }},
    };
    for (const Input &in : firsts) {
        const uarch::MachineConfig base = harness::baselineConfig(16, 2);
        plan.add("fig6/" + in.display() + "/base", run(in, base));
        for (const Column &col : fig6) {
            uarch::MachineConfig m = base;
            col.mutate(m);
            plan.add("fig6/" + in.display() + "/" + col.name, run(in, m));
        }
    }

    const Column fig7[] = {
        {"(4+0)", [](uarch::MachineConfig &m) {
             m.dl1Ports = 4;
             m.hier.dl1.hitLatency = 4;
         }},
        {"(2+2)stack$", [](uarch::MachineConfig &m) {
             harness::applyStackCache(m, 8192, 2);
         }},
        {"(2+2)svf", [](uarch::MachineConfig &m) {
             harness::applySvf(m, 1024, 2);
         }},
        {"(2+2)svf_nosq", [](uarch::MachineConfig &m) {
             harness::applySvf(m, 1024, 2);
             m.svf.noSquash = true;
         }},
    };
    for (const Input &in : all) {
        const uarch::MachineConfig base = harness::baselineConfig(16, 2);
        plan.add("fig7/" + in.display() + "/(2+0)", run(in, base));
        for (const Column &col : fig7) {
            uarch::MachineConfig m = base;
            col.mutate(m);
            plan.add("fig7/" + in.display() + "/" + col.name, run(in, m));
        }
    }

    for (const Input &in : all) {
        uarch::MachineConfig m = harness::baselineConfig(16, 2);
        harness::applySvf(m, 1024, 2);
        plan.add("fig8/" + in.display(), run(in, m));
    }

    struct Fig9Column
    {
        const char *name;
        unsigned dl1Ports;
        unsigned svfPorts;
    };
    const Fig9Column fig9[] = {
        {"(1+1S)", 1, 1}, {"(1+2S)", 1, 2}, {"(2+1S)", 2, 1},
        {"(2+2S)", 2, 2}, {"(2+4S)", 2, 4},
    };
    for (const Input &in : all) {
        for (unsigned ports : {1u, 2u}) {
            plan.add("fig9/" + in.display() + "/(" +
                         std::to_string(ports) + "+0)",
                     run(in, harness::baselineConfig(16, ports)));
        }
        for (const Fig9Column &col : fig9) {
            uarch::MachineConfig m =
                harness::baselineConfig(16, col.dl1Ports);
            harness::applySvf(m, 1024, col.svfPorts);
            plan.add("fig9/" + in.display() + "/" + col.name, run(in, m));
        }
    }

    // Tables 3 and 4 replay traffic at their 3M default budget.
    for (std::uint64_t kb : {2u, 4u, 8u}) {
        for (const Input &in : all) {
            harness::TrafficSetup s;
            s.workload = in.workload;
            s.input = in.input;
            s.maxInsts = 3'000'000;
            s.capacityBytes = kb * 1024;
            plan.add("table3/" + in.display() + "/" +
                         std::to_string(kb) + "KB", s);
        }
    }
    for (const Input &in : firsts) {
        harness::TrafficSetup s;
        s.workload = in.workload;
        s.input = in.input;
        s.maxInsts = 3'000'000;
        s.capacityBytes = 8192;
        s.slicePeriod = 400'000;
        plan.add("table4/" + in.display(), s);
    }
    return plan;
}

harness::ExperimentPlan
shuffledPlan(const harness::ExperimentPlan &plan, std::uint64_t seed)
{
    std::vector<std::size_t> order(plan.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    Rng rng(seed ^ 0x70617065725f7377ull);      // "paper_sw"
    shuffle(order, rng);
    harness::ExperimentPlan out;
    for (std::size_t i : order) {
        const harness::Job &job = plan.job(i);
        std::visit([&](const auto &s) { out.add(job.name, s); },
                   job.setup);
    }
    return out;
}

namespace
{

/**
 * sampled_long's programs: mcf (pointer chasing, little stack), gcc
 * (the deepest stack, two inputs) and parser (call-heavy), each at a
 * multiple of its default scale large enough that every input
 * outlasts the budget (gcc.integrate halts after 8.4M instructions at
 * 20x). A run therefore covers exactly SampledBudget instructions
 * whatever input the seed draws.
 */
const std::pair<const char *, std::uint64_t> SampledWorkloads[] = {
    {"mcf", 20}, {"gcc", 60}, {"parser", 20},
};
constexpr std::uint64_t SampledBudget = 20'000'000;

} // anonymous namespace

std::vector<SampledRun>
sampledPool()
{
    std::vector<SampledRun> out;
    for (const auto &[name, factor] : SampledWorkloads) {
        const workloads::WorkloadSpec &spec = workloads::workload(name);
        for (const std::string &in : spec.inputs) {
            SampledRun r;
            r.name = spec.name + "." + in;
            r.setup.workload = spec.name;
            r.setup.input = in;
            r.setup.scale = spec.defaultScale * factor;
            r.setup.maxInsts = SampledBudget;
            // fig9's 8KB, two-ported SVF on the dual-ported baseline.
            r.setup.machine = harness::baselineConfig(16, 2);
            harness::applySvf(r.setup.machine, 1024, 2);
            r.setup.sample.intervals = 32;
            r.setup.sample.warmupInsts = 5'000;
            r.setup.sample.detailedInsts = 50'000;
            out.push_back(std::move(r));
        }
    }
    return out;
}

std::vector<SampledRun>
sampledRuns(std::uint64_t seed)
{
    Rng rng(seed ^ 0x73616d706c65646cull);      // "sampledl"
    std::vector<SampledRun> out = sampledPool();
    shuffle(out, rng);
    return out;
}

harness::RunSetup
fullDetail(const harness::RunSetup &sampled)
{
    harness::RunSetup s = sampled;
    s.sample = ckpt::SamplePlan();
    s.pjobs = 1;
    return s;
}

std::vector<harness::Job>
servedPool()
{
    // Short setups (5-15 ms each on the cycle model): every Table 1
    // input on four machines at two budgets, plus a traffic replay
    // and a stack profile of each input.
    std::vector<harness::Job> pool;
    for (const Input &in : tableInputs(false)) {
        uarch::MachineConfig base = harness::baselineConfig(16, 2);
        uarch::MachineConfig svf = base;
        harness::applySvf(svf, 1024, 2);
        uarch::MachineConfig sc = base;
        harness::applyStackCache(sc, 8192, 2);
        const std::pair<const char *, uarch::MachineConfig> machines[] = {
            {"base", base}, {"svf", svf}, {"stack$", sc},
            {"4-wide", harness::baselineConfig(4, 2)},
        };
        for (std::uint64_t insts : {20'000u, 50'000u}) {
            for (const auto &[mname, m] : machines) {
                harness::RunSetup s;
                s.workload = in.workload;
                s.input = in.input;
                s.maxInsts = insts;
                s.machine = m;
                pool.push_back({"run/" + in.display() + "/" + mname +
                                    "/" + std::to_string(insts), s});
            }
        }
        harness::TrafficSetup t;
        t.workload = in.workload;
        t.input = in.input;
        t.maxInsts = 200'000;
        pool.push_back({"traffic/" + in.display(), t});
        harness::ProfileSetup p;
        p.workload = in.workload;
        p.input = in.input;
        p.maxInsts = 200'000;
        pool.push_back({"profile/" + in.display(), p});
    }
    // A fixed popularity order that mixes the kinds and machines.
    Rng rng(0x706f70756c6172ull);               // "popular"
    shuffle(pool, rng);
    return pool;
}

std::vector<Request>
servedRequests(std::uint64_t seed, std::size_t count,
               std::size_t pool_size)
{
    // Zipf(1) popularity: rank r is drawn with weight 1/(r+1).
    std::vector<double> cdf(pool_size);
    double total = 0.0;
    for (std::size_t r = 0; r < pool_size; ++r) {
        total += 1.0 / double(r + 1);
        cdf[r] = total;
    }
    Rng rng(seed ^ 0x7365727665645f6dull);      // "served_m"
    auto draw = [&]() {
        double u = rng.unit() * total;
        auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        return std::uint32_t(std::min<std::size_t>(
            std::size_t(it - cdf.begin()), pool_size - 1));
    };
    std::vector<Request> out(count);
    std::vector<bool> drawn(pool_size, false);
    for (Request &req : out) {
        std::size_t jobs = 1 + rng.below(3);
        while (req.size() < jobs) {
            std::uint32_t j = draw();
            if (std::find(req.begin(), req.end(), j) == req.end())
                req.push_back(j);
            drawn[j] = true;
        }
    }
    // Every setup runs every round, so a round simulates the same
    // instructions under every seed: a setup no draw picked gets a
    // request of its own at a seeded position.
    for (std::uint32_t j = 0; j < pool_size; ++j) {
        if (!drawn[j]) {
            auto at = std::ptrdiff_t(rng.below(out.size() + 1));
            out.insert(out.begin() + at, Request{j});
        }
    }
    return out;
}

namespace
{

/** 64-bit FNV-1a over little-endian field images. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    byte(std::uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(std::uint8_t(v >> (8 * i)));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(std::uint8_t(c));
    }
};

void
foldRun(Fnv &f, const harness::RunResult &r)
{
    f.str(r.label);
    for (const harness::CounterDef *c : harness::runCounters())
        f.u64(c->get(r));
    const ckpt::SampleEstimate &s = r.sampled;
    f.u64(s.intervals);
    f.u64(s.totalInsts);
    f.u64(s.ffInsts);
    f.u64(s.warmupInsts);
    f.u64(s.sampledInsts);
    f.u64(s.sampledCycles);
    f.u64(s.estimatedCycles);
    f.f64(s.ipcMean);
    f.f64(s.ipcStddev);
    f.u64(s.counterVariance.size());
    for (double v : s.counterVariance)
        f.f64(v);
    f.u64(r.completed);
    f.u64(r.outputOk);
    f.str(r.output);
    f.u64(r.perCore.size());
    for (const harness::RunResult &c : r.perCore)
        foldRun(f, c);
}

void
foldTraffic(Fnv &f, const harness::TrafficResult &t)
{
    for (std::uint64_t v :
         {t.insts, t.svfQuadsIn, t.svfQuadsOut, t.scQuadsIn,
          t.scQuadsOut, t.ctxSwitches, t.svfCtxBytes, t.scCtxBytes})
        f.u64(v);
}

void
foldProfile(Fnv &f, const workloads::StackProfile &p)
{
    for (std::uint64_t v :
         {p.insts, p.memRefs, p.stackRefs, p.globalRefs, p.heapRefs,
          p.otherRefs, p.stackSp, p.stackFp, p.stackGpr,
          p.maxDepthWords, p.belowTos})
        f.u64(v);
    f.u64(p.depthSamples.size());
    for (const auto &[icount, depth] : p.depthSamples) {
        f.u64(icount);
        f.u64(depth);
    }
    f.f64(p.avgOffsetBytes);
    f.f64(p.within8k);
    f.f64(p.within256);
    f.u64(p.offsetCdf.size());
    for (double v : p.offsetCdf)
        f.f64(v);
}

/** Lines of "<hex key>\t<value>\t<name>", '#' comments skipped. */
template <typename Fn>
bool
readTable(const std::string &path, std::string &err, Fn &&onRow)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot read " + path;
        return false;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        std::string key, value;
        if (!std::getline(row, key, '\t') ||
            !std::getline(row, value, '\t') || !onRow(key, value)) {
            err = path + ":" + std::to_string(lineno) + ": bad row";
            return false;
        }
    }
    return true;
}

bool
parseHex(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 16)
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 16);
    return end && *end == '\0';
}

} // anonymous namespace

std::uint64_t
digest(const harness::JobValue &value)
{
    Fnv f;
    f.u64(value.index());
    if (const auto *r = std::get_if<harness::RunResult>(&value))
        foldRun(f, *r);
    else if (const auto *t = std::get_if<harness::TrafficResult>(&value))
        foldTraffic(f, *t);
    else
        foldProfile(f, std::get<workloads::StackProfile>(value));
    return f.h;
}

bool
loadDigests(const std::string &path, DigestTable &out, std::string &err)
{
    return readTable(path, err, [&](const std::string &k,
                                    const std::string &v) {
        std::uint64_t key = 0, d = 0;
        if (!parseHex(k, key) || !parseHex(v, d))
            return false;
        out[key] = d;
        return true;
    });
}

bool
loadIpc(const std::string &path, IpcTable &out, std::string &err)
{
    return readTable(path, err, [&](const std::string &k,
                                    const std::string &v) {
        std::uint64_t key = 0;
        char *end = nullptr;
        double ipc = std::strtod(v.c_str(), &end);
        if (!parseHex(k, key) || !end || *end != '\0' || !(ipc > 0.0))
            return false;
        out[key] = ipc;
        return true;
    });
}

bool
checkResult(const DigestTable &ref, std::uint64_t key,
            const harness::JobValue &value, std::string &why)
{
    auto it = ref.find(key);
    if (it == ref.end()) {
        why = "no reference digest";
        return false;
    }
    if (const auto *r = std::get_if<harness::RunResult>(&value)) {
        if (!r->outputOk) {
            why = "golden output mismatch";
            return false;
        }
    }
    if (digest(value) != it->second) {
        why = "digest mismatch";
        return false;
    }
    return true;
}

std::uint64_t
simInsts(const harness::JobValue &value)
{
    if (const auto *r = std::get_if<harness::RunResult>(&value))
        return r->sampled.enabled() ? r->sampled.totalInsts
                                    : r->core.committed;
    if (const auto *t = std::get_if<harness::TrafficResult>(&value))
        return t->insts;
    return std::get<workloads::StackProfile>(value).insts;
}

} // namespace svf::perfbench
