/**
 * @file
 * The one run path and parallel sweep execution.
 *
 * simulate() builds and runs one point -- a ServerSim or a FleetSim
 * at one offered load -- for awsim, SweepRunner::runPoint (awsweep)
 * and awperf alike. SweepRunner expands an ExperimentSpec and
 * executes the grid points on a work-stealing sim::ThreadPool;
 * every point's RNG stream is derived from (spec seed, grid index)
 * and each result is written into its pre-assigned slot, so the
 * folded SweepResult is bit-identical regardless of thread count or
 * completion order.
 */

#ifndef AW_EXP_RUNNER_HH
#define AW_EXP_RUNNER_HH

#include <array>
#include <functional>
#include <optional>
#include <vector>

#include "analysis/sampler.hh"
#include "analysis/trace.hh"
#include "cluster/fleet.hh"
#include "cstate/cstate.hh"
#include "exp/spec.hh"
#include "server/server_sim.hh"
#include "sim/thread_pool.hh"
#include "workload/trace.hh"

namespace aw::exp {

/** One resolved simulator run: the input of simulate(). */
struct RunSpec
{
    /** servers == 0 (the default here, unlike FleetConfig's own)
     *  runs one ServerSim from fleet.server, seeded with fleet.seed;
     *  write .servers explicitly when brace-initializing. */
    cluster::FleetConfig fleet{.servers = 0};
    workload::WorkloadProfile profile; //!< required: no default
    double qps = 0.0; //!< offered load, whole fleet
    /** Looped replay of captured gaps; its mean rate replaces qps. */
    std::optional<workload::ArrivalTrace> arrivals{};
    double seconds = 0.0;        //!< see resolveWindow()
    double warmupSeconds = -1.0; //!< see resolveWindow()
    std::optional<analysis::TimelineConfig> timeline{};
    std::optional<analysis::TraceConfig> trace{};
};

/** What simulate() produced: exactly one of server and fleet (a
 *  fleet's timeline and trace moved out), plus the requested
 *  observations -- trace holds the raw spans, merged across a
 *  fleet's servers. */
struct RunOutput
{
    std::optional<server::RunResult> server;
    std::optional<cluster::FleetResult> fleet;
    std::optional<analysis::TimelineSeries> timeline;
    std::optional<analysis::TraceSeries> trace;
};

/**
 * Build and run one point. The only code outside src/cluster/ that
 * constructs a ServerSim or FleetSim: fleets get cpuidle-style idle
 * promotion so spare servers reach deep idle (docs/FLEET.md), and a
 * single server gets its observers through
 * analysis::ServerTelemetry.
 */
RunOutput simulate(RunSpec run);

/**
 * Copy @p spec's run shaping into @p run, whose fleet.server is
 * already configured: the window, core count, dispatch, thermal
 * coupling, fleet threads, epoch, timeline and trace. Every sweep
 * point and awsim's shared flags resolve through it.
 */
void shapeRun(const ExperimentSpec &spec, RunSpec &run);

/**
 * Metrics of one executed grid point. The simulation fields are
 * filled by the default point function (single-server and fleet
 * runs alike; for a single server, power is the package power and
 * the per-server spread collapses to the deep-idle share). Custom
 * point functions may instead (or additionally) report named
 * extras, which the emitters append as CSV/JSON columns; every
 * point of a sweep must report the same extras keys in the same
 * order.
 */
struct PointResult
{
    GridPoint point;

    /** Kernel events executed by this point's simulation (perf
     *  telemetry for awperf; never part of the CSV/JSON schema). */
    std::uint64_t events = 0;

    std::uint64_t requests = 0;
    double achievedQps = 0.0;
    double windowSeconds = 0.0;
    double powerW = 0.0; //!< package power (fleet: summed)
    double energyPerRequestMj = 0.0;
    double avgLatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    /** p99.9 of the same pooled samples; filled only when the spec
     *  set traceRequests (kept out of the pinned CSV schema). */
    double p999LatencyUs = 0.0;
    double deepIdleShare = 0.0;
    double minServerDeepShare = 0.0;
    double maxServerDeepShare = 0.0;
    double busiestShareOfLoad = 0.0; //!< 1/K even .. 1.0 (single srv)
    std::array<double, cstate::kNumCStates> residency{};

    std::vector<std::pair<std::string, double>> extras;

    /** Streaming interval telemetry; present only when the spec set
     *  timelineIntervalSeconds > 0 (fleet points carry the folded
     *  per-server series). Emitted by toTimelineCsv/Json, never by
     *  the regular artifact emitters. */
    std::optional<analysis::TimelineSeries> timeline;

    /** Tail-latency attribution of this point's request trace;
     *  present only when the spec set traceRequests. The raw spans
     *  are attributed and discarded point-by-point to bound sweep
     *  memory -- per-span artifacts come from awsim, not sweeps.
     *  Emitted by toTraceCsv/Json, never by the regular artifact
     *  emitters. */
    std::optional<analysis::TailAttribution> trace;
};

/** Execute one grid point; must be pure in the point (same point,
 *  same result) for the determinism guarantee to hold. */
using PointFn = std::function<PointResult(const GridPoint &)>;

/**
 * An ordered sweep: one PointResult per grid cell, in expansion
 * order.
 */
struct SweepResult
{
    ExperimentSpec spec;
    std::vector<PointResult> points;

    /** Wall-clock of the run (diagnostics only; never emitted into
     *  artifacts, which must be schedule-independent). */
    double wallSeconds = 0.0;

    /** Coordinate filter for lookups; unset fields match any. */
    struct Query
    {
        std::optional<std::string> workload{};
        std::optional<std::string> config{};
        std::optional<std::string> governor{};
        std::optional<std::string> freqPolicy{};
        std::optional<double> sloUs{};
        std::optional<double> capWatts{};
        std::optional<std::string> policy{};
        std::optional<std::string> variant{};
        std::optional<unsigned> servers{};
        std::optional<double> qps{};
        std::optional<unsigned> replica{};

        bool matches(const GridPoint &pt) const;
    };

    /** All points matching @p q, in grid order. */
    std::vector<const PointResult *> select(const Query &q) const;

    /** Exactly one match or fatal(). */
    const PointResult &at(const Query &q) const;
};

/**
 * Expand a spec and execute it on a sim::ThreadPool.
 */
class SweepRunner
{
  public:
    /** @param threads  0 = hardware concurrency. */
    explicit SweepRunner(unsigned threads = 0) : _threads(threads) {}

    /** Run with the default simulation point function. */
    SweepResult run(const ExperimentSpec &spec) const;

    /** Run with a custom point function. */
    SweepResult run(const ExperimentSpec &spec,
                    const PointFn &fn) const;

    /**
     * The default point function: resolve the point into a RunSpec,
     * simulate() it and fold the result. Exposed so custom
     * functions can wrap it.
     */
    static PointResult runPoint(const ExperimentSpec &spec,
                                const GridPoint &pt);

    unsigned threads() const
    {
        return sim::ThreadPool::resolveThreads(_threads);
    }

  private:
    unsigned _threads;
};

} // namespace aw::exp

#endif // AW_EXP_RUNNER_HH
