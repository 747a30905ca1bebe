/**
 * @file
 * Host-performance benchmark driver: one process runs ONE iteration
 * of one workload and prints one JSON document describing it.
 *
 * Everything is timed from outside the simulator: the driver calls
 * the public API of the unmodified `aw` library (registry lookups,
 * FleetSim construction and run(), SweepRunner::run with a timing
 * PointFn around SweepRunner::runPoint, the exp::to*Csv/Json
 * emitters) and reads the host clocks around those calls. Host time
 * is always host time; simulated time only appears in the workload
 * definitions.
 *
 * Usage:
 *   hostbench --workload <name> --seed <n> [--trace] [--tiny]
 *             [--fleet-threads <k>] [--spans <file>]
 *
 * --trace records a span around every public call (kept in memory,
 * written to --spans at exit) and derives the per-layer metrics
 * from them; without it only the end-to-end numbers and the exact
 * simulated counts are reported. run.py drives this binary.
 */

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/trace.hh"
#include "cluster/fleet.hh"
#include "core/aw_core.hh"
#include "exp/emit.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"

namespace {

using namespace aw;

/** Worker threads of every workload: fleet per-server threads and
 *  sweep threads alike, so one process never uses more than two
 *  cores whatever the machine has. */
constexpr unsigned kThreads = 2;

// ------------------------------------------------------------ clocks

double
clockSeconds(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double threadCpu() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double processCpu() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ------------------------------------------------------------- spans

/** One timed public call. Times are host seconds relative to the
 *  tracer's origin; CPU attributes are deltas over the span. */
struct Span
{
    std::string name;
    long parent = -1;
    double start = 0.0;
    double end = 0.0;
    double threadCpuS = 0.0;
    double processCpuS = 0.0;
    unsigned thread = 0;
};

/**
 * In-memory span recorder. Disabled, open() and close() return
 * immediately, so the untraced run pays one branch per call.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : _on(on), _origin(wallNow()) {}

    bool on() const { return _on; }

    long
    open(const std::string &name, long parent)
    {
        if (!_on)
            return -1;
        Span s;
        s.name = name;
        s.parent = parent;
        s.thread = threadIndex();
        s.threadCpuS = threadCpu();
        s.processCpuS = processCpu();
        s.start = wallNow() - _origin;
        std::lock_guard<std::mutex> lock(_mtx);
        _spans.push_back(std::move(s));
        return static_cast<long>(_spans.size()) - 1;
    }

    void
    close(long id)
    {
        if (id < 0)
            return;
        const double end = wallNow() - _origin;
        const double tcpu = threadCpu();
        const double pcpu = processCpu();
        std::lock_guard<std::mutex> lock(_mtx);
        Span &s = _spans[static_cast<std::size_t>(id)];
        s.end = end;
        s.threadCpuS = tcpu - s.threadCpuS;
        s.processCpuS = pcpu - s.processCpuS;
    }

    /** Spans named @p name (all closed by the time this is read). */
    std::vector<Span>
    named(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(_mtx);
        std::vector<Span> out;
        for (const auto &s : _spans)
            if (s.name == name)
                out.push_back(s);
        return out;
    }

    void write(const std::string &path,
               const std::string &workload_id) const;

  private:
    unsigned
    threadIndex()
    {
        std::lock_guard<std::mutex> lock(_mtx);
        const auto id = std::this_thread::get_id();
        for (std::size_t i = 0; i < _threads.size(); ++i)
            if (_threads[i] == id)
                return static_cast<unsigned>(i);
        _threads.push_back(id);
        return static_cast<unsigned>(_threads.size() - 1);
    }

    bool _on;
    double _origin;
    mutable std::mutex _mtx;
    std::vector<Span> _spans;
    std::vector<std::thread::id> _threads;
};

/**
 * RAII span. Its parent is the innermost open span of the calling
 * thread, unless one is passed explicitly (a point running on a
 * pool worker names the SweepRunner::run span that submitted it).
 */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name)
        : Scope(t, name, _current)
    {}

    Scope(Tracer &t, const std::string &name, long parent)
        : _t(t), _id(t.open(name, parent)), _outer(_current)
    {
        if (_id >= 0)
            _current = _id;
    }

    ~Scope()
    {
        _t.close(_id);
        _current = _outer;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    long id() const { return _id; }

  private:
    static thread_local long _current;

    Tracer &_t;
    long _id;
    long _outer;
};

thread_local long Scope::_current = -1;

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
Tracer::write(const std::string &path,
              const std::string &workload_id) const
{
    std::lock_guard<std::mutex> lock(_mtx);
    std::string out = "{\"workload_id\": " + jsonString(workload_id) +
                      ", \"spans\": [";
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        out += i ? ",\n  " : "\n  ";
        out += "{\"id\": " + std::to_string(i) +
               ", \"name\": " + jsonString(s.name) +
               ", \"parent\": " + std::to_string(s.parent) +
               ", \"workload_id\": " + jsonString(workload_id) +
               ", \"thread\": " + std::to_string(s.thread) +
               ", \"start_s\": " + num(s.start) +
               ", \"end_s\": " + num(s.end) +
               ", \"thread_cpu_s\": " + num(s.threadCpuS) +
               ", \"process_cpu_s\": " + num(s.processCpuS) + "}";
    }
    out += "\n]}\n";
    exp::writeFile(path, out);
}

// ------------------------------------------------------ correctness

/** The simulated outputs of one grid point, plus the verdict of the
 *  seed-independent invariants. run.py compares the outputs against
 *  the recorded reference on the pinned seed. */
struct PointCheck
{
    std::string label;
    bool ok = true;
    std::string why;
    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    double p99Us = 0.0;
    double powerW = 0.0;
    std::array<double, cstate::kNumCStates> residency{};

    void
    fail(const std::string &reason)
    {
        if (ok)
            why = reason;
        ok = false;
    }
};

bool
tilesWindow(const std::array<double, cstate::kNumCStates> &share)
{
    double sum = 0.0;
    for (const double s : share)
        sum += s;
    return std::fabs(sum - 1.0) <= 1e-9;
}

void
checkOutputs(PointCheck &c)
{
    if (!tilesWindow(c.residency))
        c.fail("residency shares do not sum to 1");
    if (c.requests == 0)
        c.fail("no completed requests");
    if (!std::isfinite(c.p99Us) || c.p99Us <= 0.0)
        c.fail("p99 latency not positive");
    if (!std::isfinite(c.powerW) || c.powerW <= 0.0)
        c.fail("power not positive");
}

PointCheck
checkFleet(const std::string &label, const cluster::FleetResult &r)
{
    PointCheck c;
    c.label = label;
    c.requests = r.requests;
    c.events = r.events;
    c.p99Us = r.p99LatencyUs;
    c.powerW = r.fleetPower;
    c.residency = r.residency.share;
    checkOutputs(c);
    if (r.requests > r.routed)
        c.fail("completed requests exceed routed arrivals");
    double summed = 0.0;
    for (const auto &s : r.perServer) {
        summed += s.packagePower;
        if (!tilesWindow(s.residency.share))
            c.fail("a server's residency shares do not sum to 1");
    }
    if (r.perServer.size() != r.servers)
        c.fail("per-server results missing");
    if (std::fabs(summed - r.fleetPower) > 1e-9 * r.fleetPower)
        c.fail("fleet power differs from summed server power");
    return c;
}

PointCheck
checkPoint(const exp::PointResult &r)
{
    PointCheck c;
    c.label = r.point.label();
    c.requests = r.requests;
    c.events = r.events;
    c.p99Us = r.p99LatencyUs;
    c.powerW = r.powerW;
    c.residency = r.residency;
    checkOutputs(c);
    return c;
}

// -------------------------------------------------------- iteration

/** What one iteration reports. */
struct Iteration
{
    double setupS = 0.0;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<PointCheck> points;
    /** Exact simulated counts (always reported; also per-layer
     *  metrics of the same name). */
    std::vector<std::pair<std::string, double>> counts;
    /** Timed and derived per-layer metrics (traced runs only). */
    std::vector<std::pair<std::string, double>> layers;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    bool trace = false;
    bool tiny = false;
    unsigned fleetThreads = kThreads;
    std::string spansPath;
};

/**
 * Set-up timing: the workload's first (cold) set-up, which is the
 * one every user of the simulator pays. run.py reports the median
 * over a run's iterations, each a fresh process.
 */
double
timedSetup(Tracer &tracer, const std::function<void()> &build)
{
    Scope span(tracer, "setup");
    const double t0 = wallNow();
    build();
    return wallNow() - t0;
}

/** Span sums for the layer metrics. */
struct SpanTotals
{
    double wall = 0.0;
    double threadCpu = 0.0;
    double processCpu = 0.0;
};

SpanTotals
totals(const std::vector<Span> &spans)
{
    SpanTotals t;
    for (const auto &s : spans) {
        t.wall += s.end - s.start;
        t.threadCpu += s.threadCpuS;
        t.processCpu += s.processCpuS;
    }
    return t;
}

/** Fleet-layer counts and (traced) the serial/worker CPU split of
 *  the FleetSim::run spans. Every FleetSim::run is called from the
 *  main thread while the pool workers run the servers, so the
 *  calling thread's CPU is the balancer pass plus the fold. */
void
fleetLayers(Iteration &it, const Tracer &tracer,
            const std::vector<cluster::FleetResult> &fleets)
{
    std::uint64_t routed = 0, servers = 0, never = 0, events = 0,
                  requests = 0, entries = 0, mispredicted = 0,
                  naps = 0;
    double busiest = 0.0, throttle = 0.0;
    for (const auto &r : fleets) {
        routed += r.routed;
        servers += r.servers;
        never += r.neverRouted;
        events += r.events;
        requests += r.requests;
        naps += r.forcedIdleNaps;
        throttle += r.capThrottleShare / fleets.size();
        busiest = std::max(busiest, r.busiestShareOfLoad);
        for (const auto &s : r.perServer) {
            entries += s.residency.idleTransitions();
            mispredicted += s.mispredictedEntries;
        }
    }
    const auto d = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    it.counts = {{"server.events", d(events)},
                 {"server.requests", d(requests)},
                 {"cluster.routed", d(routed)},
                 {"cstate.idle_entries", d(entries)}};
    if (!tracer.on())
        return;
    const SpanTotals run = totals(tracer.named("FleetSim::run"));
    const double worker = run.processCpu - run.threadCpu;
    it.layers = {
        {"cluster.serial_cpu_s", run.threadCpu},
        {"server.worker_cpu_s", worker},
        {"cluster.parallelism",
         run.wall > 0.0 ? run.processCpu / run.wall : 0.0},
        {"cluster.idle_fastpath_share",
         servers ? d(never) / d(servers) : 0.0},
        {"cluster.busiest_share", busiest},
        {"server.ns_per_event",
         events ? 1e9 * run.processCpu / d(events) : 0.0},
        {"cstate.mispredict_share",
         entries ? d(mispredicted) / d(entries) : 0.0},
        {"cap.throttle_share", throttle},
        {"cap.forced_idle_naps", d(naps)},
    };
}

// -------------------------------------------------------- workloads

/**
 * fleet_day_spread / fleet_day_packed: a 10,000-server diurnal
 * memcached day at 3 MQPS, 0.25 s routing epochs.
 */
Iteration
fleetDay(const Options &o, Tracer &tracer, const char *config,
         const char *routing)
{
    const unsigned servers = o.tiny ? 200 : 10000;
    const double qps = o.tiny ? 60e3 : 3e6;
    const double day = o.tiny ? 0.2 : 1.0;

    Iteration it;
    std::optional<cluster::FleetSim> fleet;
    it.setupS = timedSetup(tracer, [&] {
        const auto profile = exp::profileByName("memcached");
        core::AwCoreModel::canonical();
        cluster::FleetConfig fc;
        fc.servers = servers;
        fc.server = exp::configByName(config);
        fc.server.idlePromotion = true;
        fc.routing = routing;
        fc.seed = o.seed;
        fc.schedule = cluster::RateSchedule::sinusoidal(
            sim::fromSec(day), 0.6);
        fc.fleetThreads = o.fleetThreads;
        fc.epochSeconds = 0.25;
        Scope span(tracer, "FleetSim::FleetSim");
        fleet.emplace(fc, profile, qps);
    });

    const double w0 = wallNow(), c0 = processCpu();
    std::vector<cluster::FleetResult> results;
    {
        Scope span(tracer, "FleetSim::run");
        results.push_back(
            fleet->run(sim::fromSec(day), sim::fromSec(day / 10.0)));
    }
    it.points.push_back(checkFleet(
        std::string(config) + "/" + routing, results.back()));
    it.wallS = wallNow() - w0;
    it.cpuS = processCpu() - c0;
    fleetLayers(it, tracer, results);
    return it;
}

/** The per-axis groupings exp.point_s.<value> reports. */
const std::vector<std::string> kGridAxisValues = {
    "aw",  "c1c6",   "menu", "teo",  "static",
    "racetohalt", "ondemand", "20k", "100k", "300k"};

/**
 * server_grid: single-server memcached, {c1c6, aw} x {menu, teo} x
 * {static, racetohalt, ondemand} x {20k, 100k, 300k} QPS. The
 * frequency axis rides the spec's free-form variants axis so the
 * static operating point ("" freqPolicy, which the freqPolicies
 * axis cannot name) and the ladder policies share one grid.
 */
Iteration
serverGrid(const Options &o, Tracer &tracer)
{
    Iteration it;
    exp::ExperimentSpec spec;
    it.setupS = timedSetup(tracer, [&] {
        spec = exp::ExperimentSpec{};
        spec.name = "hostbench-server-grid";
        spec.workloads = {"memcached"};
        spec.configs = {"c1c6", "aw"};
        spec.governors = {"menu", "teo"};
        spec.variants = {"static", "racetohalt", "ondemand"};
        spec.qps = {20e3, 100e3, 300e3};
        spec.seconds = o.tiny ? 0.02 : 1.0;
        spec.seed = o.seed;
        for (const auto &w : spec.workloads)
            exp::profileByName(w);
        for (const auto &c : spec.configs)
            exp::configByName(c);
        core::AwCoreModel::canonical();
        spec.expand(); // validates
    });

    const std::size_t n = spec.gridSize();
    std::vector<PointCheck> checks(n);
    std::vector<std::pair<std::string, double>> pointWall;
    std::mutex pointMtx;

    const double w0 = wallNow(), c0 = processCpu();
    exp::SweepResult sweep;
    {
        Scope run(tracer, "SweepRunner::run");
        const long parent = run.id();
        const exp::SweepRunner runner(kThreads);
        sweep = runner.run(spec, [&](const exp::GridPoint &pt) {
            exp::GridPoint p = pt;
            p.freqPolicy = pt.variant == "static" ? "" : pt.variant;
            exp::PointResult r;
            const double t0 = wallNow();
            try {
                Scope span(tracer, "SweepRunner::runPoint", parent);
                r = exp::SweepRunner::runPoint(spec, p);
                checks[pt.index] = checkPoint(r);
            } catch (const std::exception &e) {
                r.point = pt;
                checks[pt.index].label = pt.label();
                checks[pt.index].fail(e.what());
            }
            if (tracer.on()) {
                const double dt = wallNow() - t0;
                char qps[16];
                std::snprintf(qps, sizeof(qps), "%.0fk",
                              pt.qps / 1e3);
                std::lock_guard<std::mutex> lock(pointMtx);
                for (const std::string &v :
                     {pt.config, pt.governor, pt.variant,
                      std::string(qps)})
                    pointWall.emplace_back(v, dt);
            }
            return r;
        });
    }
    it.points = std::move(checks);
    it.wallS = wallNow() - w0;
    it.cpuS = processCpu() - c0;

    std::uint64_t events = 0, requests = 0;
    for (const auto &p : sweep.points) {
        events += p.events;
        requests += p.requests;
    }
    it.counts = {{"server.events", static_cast<double>(events)},
                 {"server.requests", static_cast<double>(requests)}};
    if (tracer.on()) {
        const SpanTotals run =
            totals(tracer.named("SweepRunner::run"));
        it.layers = {{"server.ns_per_event",
                      events ? 1e9 * run.processCpu / events : 0.0}};
        for (const auto &v : kGridAxisValues) {
            double s = 0.0;
            for (const auto &[value, dt] : pointWall)
                if (value == v)
                    s += dt;
            it.layers.emplace_back("exp.point_s." + v, s);
        }
    }
    return it;
}

/** Every sweep artifact emitter, by span name. */
using Emitter = std::string (*)(const exp::SweepResult &);
const std::pair<const char *, Emitter> kEmitters[] = {
    {"exp::toCsv", exp::toCsv},
    {"exp::toJson", exp::toJson},
    {"exp::toTimelineCsv", exp::toTimelineCsv},
    {"exp::toTimelineJson", exp::toTimelineJson},
    {"exp::toTraceCsv", exp::toTraceCsv},
    {"exp::toTraceJson", exp::toTraceJson},
};

/**
 * fleet_capped_observed: 16 servers x {aw_c6a, c1c6} under an 18 W
 * cap with thermal coupling, a 3x flash crowd, route-to-headroom,
 * 0.05 s epochs, a 10 ms timeline and request tracing, rendered to
 * every sweep artifact in memory. The flash-crowd schedule is not a
 * spec axis, so the point function builds the FleetSim itself and
 * folds its result the way SweepRunner::runPoint does.
 */
Iteration
fleetCappedObserved(const Options &o, Tracer &tracer)
{
    const double window = o.tiny ? 0.05 : 0.8;

    Iteration it;
    exp::ExperimentSpec spec;
    it.setupS = timedSetup(tracer, [&] {
        spec = exp::ExperimentSpec{};
        spec.name = "hostbench-capped-observed";
        spec.workloads = {"memcached"};
        spec.configs = {"aw_c6a", "c1c6"};
        spec.policies = {"route-to-headroom"};
        spec.fleetSizes = {o.tiny ? 4u : 16u};
        spec.qpsPerServer = true;
        spec.qps = {25e3};
        spec.capWatts = {18.0};
        spec.thermal = true;
        spec.seconds = window;
        spec.warmupSeconds = window / 10.0;
        spec.epochSeconds = 0.05;
        spec.timelineIntervalSeconds = 0.01;
        spec.traceRequests = true;
        spec.fleetThreads = o.fleetThreads;
        spec.seed = o.seed;
        exp::profileByName("memcached");
        for (const auto &c : spec.configs)
            exp::configByName(c);
        core::AwCoreModel::canonical();
        spec.expand(); // validates
    });

    std::vector<cluster::FleetResult> fleets(spec.gridSize());
    std::vector<PointCheck> checks(spec.gridSize());
    std::uint64_t traceEmitted = 0, traceDropped = 0,
                  timelineEmitted = 0, timelineDropped = 0;

    // Sequential points (1 sweep thread): every FleetSim::run is
    // called from this thread, with fleetThreads pool workers.
    // Unobserved, the same point runs with the timeline and tracer
    // off (the traced run's analysis.observer_s baseline).
    const auto pointFn = [&](const exp::GridPoint &pt, bool observed) {
        cluster::FleetConfig fc;
        fc.servers = pt.servers;
        fc.server = exp::configByName(pt.config);
        fc.server.idlePromotion = true;
        fc.server.cap.capWatts = pt.capWatts;
        fc.server.cap.thermalEnabled = spec.thermal;
        fc.routing = pt.policy;
        fc.seed = pt.seed;
        fc.schedule = cluster::RateSchedule::flashCrowd(
            sim::fromSec(spec.seconds), 3.0);
        fc.fleetThreads = spec.fleetThreads;
        fc.epochSeconds = spec.epochSeconds;
        std::optional<cluster::FleetSim> fleet;
        {
            Scope span(tracer, "FleetSim::FleetSim");
            fleet.emplace(fc, exp::profileByName(pt.workload),
                          pt.qps);
        }
        if (observed) {
            analysis::TimelineConfig tc;
            tc.intervalSeconds = spec.timelineIntervalSeconds;
            fleet->enableTimeline(tc);
            fleet->enableRequestTrace(analysis::TraceConfig{});
        }
        cluster::FleetResult r;
        {
            Scope span(tracer, observed ? "FleetSim::run"
                                        : "FleetSim::run.unobserved");
            r = fleet->run(sim::fromSec(spec.seconds),
                           sim::fromSec(spec.warmupSeconds));
        }
        exp::PointResult res;
        res.point = pt;
        if (r.timeline) {
            timelineEmitted += r.timeline->emitted;
            timelineDropped += r.timeline->dropped;
        }
        if (r.trace) {
            Scope span(tracer, "analysis::attributeTail");
            res.trace = analysis::attributeTail(*r.trace);
            traceEmitted += res.trace->emitted;
            traceDropped += res.trace->dropped;
            res.p999LatencyUs = r.p999LatencyUs;
        }
        res.timeline = std::move(r.timeline);
        r.trace.reset();
        res.events = r.events;
        res.requests = r.requests;
        res.achievedQps = r.achievedQps;
        res.windowSeconds = sim::toSec(r.window);
        res.powerW = r.fleetPower;
        res.energyPerRequestMj = r.energyPerRequestMj;
        res.avgLatencyUs = r.avgLatencyUs;
        res.p99LatencyUs = r.p99LatencyUs;
        res.deepIdleShare = r.deepIdleShare;
        res.minServerDeepShare = r.minServerDeepShare;
        res.maxServerDeepShare = r.maxServerDeepShare;
        res.busiestShareOfLoad = r.busiestShareOfLoad;
        res.residency = r.residency.share;
        res.extras.emplace_back("cap_throttle_share",
                                r.capThrottleShare);
        res.extras.emplace_back("max_temp_c", r.maxTempC);
        if (observed) {
            checks[pt.index] = checkFleet(pt.label(), r);
            fleets[pt.index] = std::move(r);
        }
        return res;
    };

    const double w0 = wallNow(), c0 = processCpu();
    std::size_t bytes = 0;
    {
        Scope run(tracer, "SweepRunner::run");
        const exp::SweepRunner runner(1);
        const auto sweep =
            runner.run(spec, [&](const exp::GridPoint &pt) {
                return pointFn(pt, true);
            });
        for (const auto &[name, emit] : kEmitters) {
            Scope span(tracer, name);
            bytes += emit(sweep).size();
        }
    }
    it.wallS = wallNow() - w0;
    it.cpuS = processCpu() - c0;
    it.points = std::move(checks);
    if (bytes == 0)
        it.points.front().fail("emitters rendered no bytes");

    fleetLayers(it, tracer, fleets);
    if (tracer.on()) {
        // The same points with both observers off: the observers'
        // host cost is the difference of the FleetSim::run walls.
        Scope run(tracer, "SweepRunner::run.unobserved");
        const exp::SweepRunner runner(1);
        runner.run(spec, [&](const exp::GridPoint &pt) {
            return pointFn(pt, false);
        });
        const auto d = [](std::uint64_t v) {
            return static_cast<double>(v);
        };
        double emit = 0.0;
        for (const auto &emitter : kEmitters)
            emit += totals(tracer.named(emitter.first)).wall;
        it.layers.emplace_back("exp.emit_s", emit);
        it.layers.emplace_back(
            "analysis.observer_s",
            totals(tracer.named("FleetSim::run")).wall -
                totals(tracer.named("FleetSim::run.unobserved")).wall);
        it.layers.emplace_back(
            "analysis.trace_dropped_share",
            traceEmitted ? d(traceDropped) / d(traceEmitted) : 0.0);
        it.layers.emplace_back(
            "analysis.timeline_dropped_share",
            timelineEmitted ? d(timelineDropped) / d(timelineEmitted)
                            : 0.0);
    }
    return it;
}

// ------------------------------------------------------------ main

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload "
                 "<fleet_day_spread|fleet_day_packed|server_grid|"
                 "fleet_capped_observed> --seed <n> [--trace] "
                 "[--tiny] [--fleet-threads <k>] [--spans <file>]\n",
                 msg);
    std::exit(2);
}

unsigned long long
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = parseCount("--seed", value());
        else if (a == "--trace")
            o.trace = true;
        else if (a == "--tiny")
            o.tiny = true;
        else if (a == "--fleet-threads") {
            const auto v = parseCount("--fleet-threads", value());
            if (v < 1 || v > kThreads)
                usage("--fleet-threads must be 1 or 2");
            o.fleetThreads = static_cast<unsigned>(v);
        } else if (a == "--spans")
            o.spansPath = value();
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    Tracer tracer(o.trace);

    Iteration it;
    if (o.workload == "fleet_day_spread")
        it = fleetDay(o, tracer, "c1c6", "round-robin");
    else if (o.workload == "fleet_day_packed")
        it = fleetDay(o, tracer, "aw", "pack-first");
    else if (o.workload == "server_grid")
        it = serverGrid(o, tracer);
    else if (o.workload == "fleet_capped_observed")
        it = fleetCappedObserved(o, tracer);
    else
        usage(("unknown workload " + o.workload).c_str());

    const std::string workloadId =
        o.workload + "-seed" + std::to_string(o.seed) + "-pid" +
        std::to_string(static_cast<long>(getpid()));
    if (o.trace && !o.spansPath.empty())
        tracer.write(o.spansPath, workloadId);

    const auto pairs =
        [](const std::vector<std::pair<std::string, double>> &v) {
            std::string s = "{";
            for (std::size_t i = 0; i < v.size(); ++i)
                s += (i ? ", " : "") + jsonString(v[i].first) + ": " +
                     num(v[i].second);
            return s + "}";
        };
    std::string points = "[";
    for (std::size_t i = 0; i < it.points.size(); ++i) {
        const PointCheck &c = it.points[i];
        points += i ? ",\n  " : "\n  ";
        points += "{\"label\": " + jsonString(c.label) +
                  ", \"ok\": " + (c.ok ? "true" : "false") +
                  ", \"why\": " + jsonString(c.why) +
                  ", \"requests\": " + std::to_string(c.requests) +
                  ", \"events\": " + std::to_string(c.events) +
                  ", \"p99_us\": " + num(c.p99Us) +
                  ", \"power_w\": " + num(c.powerW) +
                  ", \"residency\": [";
        for (std::size_t k = 0; k < c.residency.size(); ++k)
            points += (k ? ", " : "") + num(c.residency[k]);
        points += "]}";
    }
    points += "]";

    std::printf(
        "{\"workload_id\": %s, \"setup_s\": %s, \"wall_s\": %s, "
        "\"cpu_s\": %s, \"peak_rss_mb\": %s,\n"
        "\"machine\": {\"nproc\": %u, \"compiler\": %s, "
        "\"build_type\": %s, \"fleet_threads\": %u, "
        "\"sweep_threads\": %u},\n"
        "\"counts\": %s,\n\"layers\": %s,\n\"points\": %s}\n",
        jsonString(workloadId).c_str(), num(it.setupS).c_str(),
        num(it.wallS).c_str(), num(it.cpuS).c_str(),
        num(peakRssMiB()).c_str(),
        std::thread::hardware_concurrency(),
        jsonString(HOSTBENCH_COMPILER).c_str(),
        jsonString(HOSTBENCH_BUILD_TYPE).c_str(), o.fleetThreads,
        o.workload == "server_grid" ? kThreads : 1u,
        pairs(it.counts).c_str(), pairs(it.layers).c_str(),
        points.c_str());
    return 0;
}
