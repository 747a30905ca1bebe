/**
 * @file
 * One attach path for a server's streaming observers: the interval
 * timeline (sampler.hh), the request trace (trace.hh), both or
 * neither. exp::simulate() and every server of a fleet wire them
 * the same way.
 */

#ifndef AW_ANALYSIS_OBSERVERS_HH
#define AW_ANALYSIS_OBSERVERS_HH

#include <optional>

#include "analysis/sampler.hh"
#include "analysis/trace.hh"
#include "server/server_sim.hh"
#include "server/telemetry.hh"

namespace aw::analysis {

/** The observers a run requested, sized for one server. */
class ServerTelemetry
{
  public:
    ServerTelemetry(const std::optional<TimelineConfig> &timeline,
                    const std::optional<TraceConfig> &trace,
                    unsigned cores)
    {
        if (timeline)
            recorder.emplace(*timeline, cores);
        if (trace)
            tracer.emplace(*trace, cores);
    }

    /** The server keeps pointers into this object. */
    ServerTelemetry(const ServerTelemetry &) = delete;
    ServerTelemetry &operator=(const ServerTelemetry &) = delete;

    /**
     * Attach to @p srv for a run this object outlives: nothing
     * when neither observer was requested (the observer-free hot
     * path stays untouched), the requested one directly, and a
     * fanout only when both were.
     */
    void attach(server::ServerSim &srv)
    {
        if (recorder && tracer) {
            _fanout.add(&*recorder);
            _fanout.add(&*tracer);
            srv.setObserver(&_fanout);
        } else if (recorder) {
            srv.setObserver(&*recorder);
        } else if (tracer) {
            srv.setObserver(&*tracer);
        }
    }

    std::optional<TimelineRecorder> recorder;
    std::optional<RequestTracer> tracer;

  private:
    server::TelemetryFanout _fanout;
};

} // namespace aw::analysis

#endif // AW_ANALYSIS_OBSERVERS_HH
