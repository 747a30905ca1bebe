/**
 * @file
 * Declarative experiment specifications.
 *
 * Every figure and table in the paper -- and every fleet finding of
 * the cluster layer -- is a grid of (workload x configuration x
 * routing policy x fleet size x offered load x seed replica) runs.
 * An ExperimentSpec names those axes once; expand() turns it into
 * an ordered cartesian grid of GridPoints, each carrying a
 * deterministically derived seed, so a runner can execute the
 * points in any order (or in parallel) and still reproduce the same
 * ensemble bit for bit.
 */

#ifndef AW_EXP_SPEC_HH
#define AW_EXP_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "server/config.hh"
#include "workload/profiles.hh"

namespace aw::exp {

/**
 * One cell of the expanded grid. The coordinates identify the run;
 * index is the cell's position in the spec's expansion order and
 * seed is derived from (spec seed, index), so a point's RNG stream
 * depends only on the spec, never on scheduling.
 */
struct GridPoint
{
    std::size_t index = 0;

    std::string workload; //!< workload profile registry name
    std::string config;   //!< server configuration registry name
    std::string governor; //!< governor spec ("" = config default)
    std::string freqPolicy; //!< frequency governor ("" = static point)
    double sloUs = 0.0;   //!< latency SLO in us (0 = unconstrained)
    double capWatts = 0.0; //!< package power cap in W (0 = uncapped)
    std::string policy;   //!< routing policy ("" = single server)
    unsigned servers = 0; //!< fleet size (0 = single server)
    double qps = 0.0;     //!< effective offered load (already scaled)
    std::string variant;  //!< free-form axis ("" when unused)
    unsigned replica = 0; //!< seed replica number

    std::uint64_t seed = 0; //!< deriveSeed(spec.seed, index)

    /** "memcached/c1c6/pack-first/K8/400000qps/r0" style label. */
    std::string label() const;
};

/**
 * A declarative sweep: named axes plus run-shaping knobs.
 *
 * Fleet mode is selected by a non-empty fleetSizes axis; policies
 * then defaults to {"round-robin"} if left empty. With fleetSizes
 * empty the grid is single-server and policies must be empty.
 * variants is a free-form axis for custom point functions (e.g.
 * the Table 4 scheme registry); the default runner ignores it.
 */
struct ExperimentSpec
{
    std::string name = "sweep";

    /** @{ Grid axes. */
    std::vector<std::string> workloads{"memcached"};
    std::vector<std::string> configs{"baseline"};
    /** Governor specs (cstate::GovernorRegistry grammar, e.g.
     *  "menu", "teo", "static:C6"). Empty = each config's own
     *  default, leaving the grid identical to a spec without the
     *  axis. "oracle" is single-server only (it needs per-core
     *  arrival foreknowledge) and is rejected on fleet grids. */
    std::vector<std::string> governors;
    /** Frequency-governor specs (freq::FreqRegistry grammar, e.g.
     *  "performance", "ondemand", "racetohalt"). Empty = each
     *  config's static operating point (base, or Pn under runAtPn),
     *  leaving the grid -- and every emitted artifact -- identical
     *  to a spec without the axis. */
    std::vector<std::string> freqPolicies;
    /** Per-request latency-SLO axis in microseconds (freq::
     *  LatencyQoS). Empty = unconstrained; a 0 value inside the
     *  axis also means unconstrained, so one grid can compare
     *  with/without an SLO. */
    std::vector<double> sloUs;
    /** Package power-cap axis in watts (cap::CapConfig::capWatts).
     *  Empty = uncapped; a 0 value inside the axis also means
     *  uncapped, so one grid can compare capped against uncapped.
     *  Leaving the axis empty keeps the grid -- and every emitted
     *  artifact -- identical to a spec without the axis. */
    std::vector<double> capWatts;
    std::vector<std::string> policies;
    std::vector<unsigned> fleetSizes;
    std::vector<double> qps{100e3};
    std::vector<std::string> variants;
    unsigned replicas = 1;
    /** @} */

    /** Interpret the qps axis as per-server load, scaled by the
     *  point's fleet size (fleet-size scaling sweeps). */
    bool qpsPerServer = false;

    /** Top-level seed every grid point derives its stream from. */
    std::uint64_t seed = 42;

    /** @{ Run shaping. seconds <= 0 selects the simulator's
     *  auto-sized window (ServerSim::run() / FleetSim::run()
     *  defaults, which pick their own warmup); warmupSeconds < 0 =
     *  seconds/10. Setting warmupSeconds without seconds is a
     *  validation error. */
    double seconds = 0.0;
    double warmupSeconds = -1.0;
    /** @} */

    /** Core-count override (0 = config default). */
    unsigned cores = 0;

    /** Streaming-telemetry interval (seconds); 0 disables the
     *  sampler entirely (the default -- no observer is attached,
     *  so a disabled sweep pays one untaken branch per event).
     *  When > 0 every point records an aw-timeline/3 series into
     *  PointResult::timeline (see analysis/sampler.hh and
     *  docs/TELEMETRY.md); the sampler is passive, so all other
     *  results and artifacts stay byte-identical. */
    double timelineIntervalSeconds = 0.0;

    /** Record a request-path trace per point (see analysis/trace.hh
     *  and docs/TRACING.md): every point then carries a tail-latency
     *  attribution in PointResult::trace (emitted by
     *  toTraceCsv/Json, never by the regular artifact emitters) and
     *  p99.9 in PointResult::p999LatencyUs. The tracer is passive,
     *  so all other results and artifacts stay byte-identical;
     *  disabled (the default) it costs nothing. */
    bool traceRequests = false;

    /** Couple the RC thermal model (cap::CapConfig::thermalEnabled
     *  with its default ThermalParams) on every point. A spec-level
     *  knob, not an axis: thermal coupling changes the physical
     *  machine being swept, like cores. Disabled (the default) the
     *  grid stays identical to a spec without the knob. */
    bool thermal = false;

    /** Dispatch-policy override applied to every point ("" = each
     *  config's default; see server::dispatchPolicyNames()). */
    std::string dispatch;

    /** Worker threads WITHIN each fleet point (FleetConfig::
     *  fleetThreads): the per-server phase of a fleet run
     *  partitions its K independent server simulations across this
     *  many threads, bit-identically to the serial reference.
     *  Composes with the SweepRunner's across-points pool; the
     *  default of 1 keeps small grids on the across-points axis.
     *  0 = hardware concurrency. Ignored by single-server points. */
    unsigned fleetThreads = 1;

    /** Routing-decision epoch length in seconds (FleetConfig::
     *  epochSeconds); results are byte-identical for any value.
     *  0 = one epoch spanning the run. Must be finite and >= 0.
     *  Ignored by single-server points. */
    double epochSeconds = 0.0;

    /** fatal() on empty or unknown axis values. */
    void validate() const;

    /** Number of grid cells. */
    std::size_t gridSize() const;

    /** The ordered cartesian grid. Expansion order (outer to
     *  inner) is the axis registry's (exp/axis.hh): workload,
     *  config, governor, freq policy, SLO, power cap, policy, fleet
     *  size, qps, variant, replica. Calls validate(). */
    std::vector<GridPoint> expand() const;
};

/** @{ Name registries shared by awsim, awsweep and the spec
 *  validator. Unknown names are fatal() with the known list. */
workload::WorkloadProfile profileByName(const std::string &name);
server::ServerConfig configByName(const std::string &name);
const std::vector<std::string> &workloadNames();
const std::vector<std::string> &configNames();
/** @} */

} // namespace aw::exp

#endif // AW_EXP_SPEC_HH
