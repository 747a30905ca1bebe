#include "exp/emit.hh"

#include <algorithm>
#include <cstdio>
#include <variant>
#include <vector>

#include "analysis/sampler.hh"
#include "analysis/trace.hh"
#include "exp/axis.hh"
#include "sim/logging.hh"

namespace aw::exp {

namespace {

/** Schedule-independent double rendering ("%.10g"). */
std::string
num(double v)
{
    return sim::strprintf("%.10g", v);
}

/** Quote a CSV field only when it needs it. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            // RFC 8259 forbids raw control characters in strings.
            if (static_cast<unsigned char>(c) < 0x20)
                out += sim::strprintf("\\u%04x",
                                      static_cast<unsigned>(
                                          static_cast<unsigned char>(
                                              c)));
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

const char *const kResidencyColumns[] = {
    "res_c0", "res_c1", "res_c1e", "res_c6a", "res_c6ae", "res_c6",
};
static_assert(sizeof(kResidencyColumns) /
                  sizeof(kResidencyColumns[0]) ==
              cstate::kNumCStates);

/**
 * The shared coordinate prefix of every artifact row: the grid
 * index, then each axis in column order. Optional columns appear
 * only when the spec swept their axis, so artifacts of specs
 * without them keep their bytes.
 */
class Coordinates
{
  public:
    explicit Coordinates(const ExperimentSpec &spec)
    {
        for (const Axis &a : axes())
            if (a.emitted(spec))
                _columns.push_back(&a);
        std::ranges::sort(_columns, {}, &Axis::column);
    }

    /** "index,workload,...,replica" */
    std::string header() const
    {
        std::string out = "index";
        for (const Axis *a : _columns) {
            out += ',';
            out += a->key;
        }
        return out;
    }

    /** "<index>,<workload>,...,<replica>" */
    std::string csv(const GridPoint &pt) const
    {
        std::string out = sim::strprintf("%zu", pt.index);
        for (const Axis *a : _columns)
            out += ',' + field(*a, pt, csvField);
        return out;
    }

    /** "\"index\": <index>, \"workload\": ..., " */
    std::string json(const GridPoint &pt) const
    {
        std::string out = sim::strprintf("\"index\": %zu, ", pt.index);
        for (const Axis *a : _columns)
            out += sim::strprintf("\"%s\": %s, ", a->key,
                                  field(*a, pt, jsonString).c_str());
        return out;
    }

  private:
    /** Strings through @p quote, numbers as everywhere else. */
    static std::string field(const Axis &a, const GridPoint &pt,
                             std::string (*quote)(const std::string &))
    {
        return std::visit(
            [quote](auto v) {
                if constexpr (std::is_pointer_v<decltype(v)>)
                    return quote(*v);
                else if constexpr (std::is_same_v<decltype(v), double>)
                    return num(v);
                else
                    return sim::strprintf("%u", v);
            },
            a.value(pt));
    }

    std::vector<const Axis *> _columns;
};

} // namespace

std::string
csvHeader(const SweepResult &result)
{
    std::string h = Coordinates(result.spec).header();
    h += ",seed,requests,achieved_qps,window_s,power_w,"
         "mj_per_request,avg_latency_us,p99_latency_us,deep_idle,"
         "min_server_deep,max_server_deep,busiest_share";
    for (const char *col : kResidencyColumns) {
        h += ',';
        h += col;
    }
    if (!result.points.empty())
        for (const auto &[key, value] : result.points.front().extras) {
            (void)value;
            h += ',';
            h += csvField(key);
        }
    return h;
}

std::string
toCsv(const SweepResult &result)
{
    std::string out = csvHeader(result);
    out += '\n';
    const Coordinates coords(result.spec);
    for (const auto &p : result.points) {
        const auto &pt = p.point;
        out += coords.csv(pt);
        out += sim::strprintf(
            ",%llu,%llu", static_cast<unsigned long long>(pt.seed),
            static_cast<unsigned long long>(p.requests));
        for (const double v :
             {p.achievedQps, p.windowSeconds, p.powerW,
              p.energyPerRequestMj, p.avgLatencyUs, p.p99LatencyUs,
              p.deepIdleShare, p.minServerDeepShare,
              p.maxServerDeepShare, p.busiestShareOfLoad}) {
            out += ',';
            out += num(v);
        }
        for (const double share : p.residency) {
            out += ',';
            out += num(share);
        }
        for (const auto &[key, value] : p.extras) {
            (void)key;
            out += ',';
            out += num(value);
        }
        out += '\n';
    }
    return out;
}

std::string
toJson(const SweepResult &result)
{
    const auto &spec = result.spec;
    std::string out = "{\n";
    out += "  \"name\": " + jsonString(spec.name) + ",\n";
    out += sim::strprintf("  \"seed\": %llu,\n",
                          static_cast<unsigned long long>(spec.seed));
    out += sim::strprintf("  \"replicas\": %u,\n", spec.replicas);
    out += sim::strprintf("  \"points\": [");
    const Coordinates coords(spec);
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const auto &p = result.points[i];
        const auto &pt = p.point;
        out += i ? ",\n    {" : "\n    {";
        out += coords.json(pt);
        out += sim::strprintf(
            "\"seed\": %llu, \"requests\": %llu",
            static_cast<unsigned long long>(pt.seed),
            static_cast<unsigned long long>(p.requests));
        const std::pair<const char *, double> metrics[] = {
            {"achieved_qps", p.achievedQps},
            {"window_s", p.windowSeconds},
            {"power_w", p.powerW},
            {"mj_per_request", p.energyPerRequestMj},
            {"avg_latency_us", p.avgLatencyUs},
            {"p99_latency_us", p.p99LatencyUs},
            {"deep_idle", p.deepIdleShare},
            {"min_server_deep", p.minServerDeepShare},
            {"max_server_deep", p.maxServerDeepShare},
            {"busiest_share", p.busiestShareOfLoad},
        };
        for (const auto &[key, value] : metrics)
            out += sim::strprintf(", \"%s\": %s", key,
                                  num(value).c_str());
        out += ", \"residency\": [";
        for (std::size_t s = 0; s < p.residency.size(); ++s) {
            if (s)
                out += ", ";
            out += num(p.residency[s]);
        }
        out += "]";
        for (const auto &[key, value] : p.extras)
            out += ", " + jsonString(key) + ": " + num(value);
        out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
}

namespace {

/** Shared coordinate prefix of a timeline row/object. */
const analysis::TimelineSeries &
pointTimeline(const PointResult &p)
{
    if (!p.timeline) {
        sim::fatal("toTimelineCsv/Json: point '%s' recorded no "
                   "timeline (set spec.timelineIntervalSeconds > 0)",
                   p.point.label().c_str());
    }
    return *p.timeline;
}

} // namespace

std::string
toTimelineCsv(const SweepResult &result)
{
    std::string out =
        sim::strprintf("# %s\n", analysis::kTimelineSchema);
    for (const auto &p : result.points) {
        const auto &series = pointTimeline(p);
        if (series.dropped == 0)
            continue;
        // Per-point overflow flags ride as comment lines so the
        // column schema (and every non-overflowing golden) stays
        // byte-identical.
        out += sim::strprintf(
            "# point %zu emitted %llu dropped %llu (ring overflow: "
            "oldest intervals missing)\n",
            p.point.index,
            static_cast<unsigned long long>(series.emitted),
            static_cast<unsigned long long>(series.dropped));
        sim::warn("aw-timeline/3: point '%s' interval ring "
                  "overflowed (%llu of %llu intervals dropped); "
                  "raise TimelineConfig::capacity or widen the "
                  "interval",
                  p.point.label().c_str(),
                  static_cast<unsigned long long>(series.dropped),
                  static_cast<unsigned long long>(series.emitted));
    }
    const Coordinates coords(result.spec);
    out += coords.header() + ',';
    out += analysis::timelineCsvHeader();
    out += '\n';
    for (const auto &p : result.points) {
        const auto &series = pointTimeline(p);
        const std::string prefix = coords.csv(p.point) + ',';
        for (const auto &s : series.samples) {
            out += prefix;
            out += analysis::timelineCsvRow(series, s);
            out += '\n';
        }
    }
    return out;
}

std::string
toTimelineJson(const SweepResult &result)
{
    const auto &spec = result.spec;
    std::string out = "{\n";
    out += sim::strprintf("  \"schema\": \"%s\",\n",
                          analysis::kTimelineSchema);
    out += "  \"name\": " + jsonString(spec.name) + ",\n";
    out += sim::strprintf("  \"seed\": %llu,\n",
                          static_cast<unsigned long long>(spec.seed));
    out += sim::strprintf("  \"interval_s\": %s,\n",
                          num(spec.timelineIntervalSeconds).c_str());
    out += "  \"points\": [";
    const Coordinates coords(spec);
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const auto &p = result.points[i];
        const auto &series = pointTimeline(p);
        out += i ? ",\n    {" : "\n    {";
        out += coords.json(p.point);
        out += sim::strprintf(
            "\"cores\": %u, \"intervals_emitted\": %llu, "
            "\"intervals_dropped\": %llu, "
            "\"idle_observations\": %llu, "
            "\"idle_observation_mismatches\": %llu",
            series.cores,
            static_cast<unsigned long long>(series.emitted),
            static_cast<unsigned long long>(series.dropped),
            static_cast<unsigned long long>(
                series.idleObservations),
            static_cast<unsigned long long>(
                series.idleObservationMismatches));
        out += ",\n    \"intervals\": " +
               analysis::timelineIntervalsJson(series) + ",\n";
        out += "    \"transitions\": " +
               analysis::timelineTransitionsJson(
                   series.transitions) +
               "}";
    }
    out += "\n  ]\n}\n";
    return out;
}

namespace {

const analysis::TailAttribution &
pointTrace(const PointResult &p)
{
    if (!p.trace) {
        sim::fatal("toTraceCsv/Json: point '%s' recorded no request "
                   "trace (set spec.traceRequests = true)",
                   p.point.label().c_str());
    }
    return *p.trace;
}

const char *const kWakeShareColumns[] = {
    "p99_wake_share_c0",  "p99_wake_share_c1",
    "p99_wake_share_c1e", "p99_wake_share_c6a",
    "p99_wake_share_c6ae", "p99_wake_share_c6",
};
static_assert(sizeof(kWakeShareColumns) /
                  sizeof(kWakeShareColumns[0]) ==
              cstate::kNumCStates);

} // namespace

std::string
toTraceCsv(const SweepResult &result)
{
    std::string out =
        sim::strprintf("# %s\n", analysis::kTraceSchema);
    const Coordinates coords(result.spec);
    out += coords.header();
    out += ",spans,emitted,dropped,p99_threshold_us,"
           "p999_threshold_us,p999_latency_us,all_wake_share,"
           "all_queue_share,all_service_share,all_routing_share,"
           "p99_mean_latency_us,p99_mean_wake_us,p99_mean_queue_us,"
           "p99_mean_service_us,p99_mean_routing_us,p99_wake_share,"
           "p99_queue_share,p99_service_share,p99_routing_share,"
           "p999_wake_share,p999_queue_share,p999_service_share,"
           "p999_routing_share";
    for (const char *col : kWakeShareColumns) {
        out += ',';
        out += col;
    }
    out += '\n';
    for (const auto &p : result.points) {
        const auto &attr = pointTrace(p);
        out += coords.csv(p.point);
        out += sim::strprintf(
            ",%llu,%llu,%llu",
            static_cast<unsigned long long>(attr.spans),
            static_cast<unsigned long long>(attr.emitted),
            static_cast<unsigned long long>(attr.dropped));
        for (const double v :
             {attr.p99Us, attr.p999Us, p.p999LatencyUs,
              attr.all.wakeShare, attr.all.queueShare,
              attr.all.serviceShare, attr.all.routingShare,
              attr.p99.meanLatencyUs, attr.p99.meanWakeUs,
              attr.p99.meanQueueUs, attr.p99.meanServiceUs,
              attr.p99.meanRoutingUs, attr.p99.wakeShare,
              attr.p99.queueShare, attr.p99.serviceShare,
              attr.p99.routingShare, attr.p999.wakeShare,
              attr.p999.queueShare, attr.p999.serviceShare,
              attr.p999.routingShare}) {
            out += ',';
            out += num(v);
        }
        for (const double share : attr.p99.wakeShareOfLatency) {
            out += ',';
            out += num(share);
        }
        out += '\n';
    }
    return out;
}

std::string
toTraceJson(const SweepResult &result)
{
    const auto &spec = result.spec;
    std::string out = "{\n";
    out += sim::strprintf("  \"schema\": \"%s\",\n",
                          analysis::kTraceSchema);
    out += "  \"name\": " + jsonString(spec.name) + ",\n";
    out += sim::strprintf("  \"seed\": %llu,\n",
                          static_cast<unsigned long long>(spec.seed));
    out += sim::strprintf("  \"replicas\": %u,\n", spec.replicas);
    out += "  \"points\": [";
    const Coordinates coords(spec);
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const auto &p = result.points[i];
        const auto &attr = pointTrace(p);
        out += i ? ",\n    {" : "\n    {";
        out += coords.json(p.point);
        out += sim::strprintf(
            "\"spans\": %llu, \"emitted\": %llu, "
            "\"dropped\": %llu",
            static_cast<unsigned long long>(attr.spans),
            static_cast<unsigned long long>(attr.emitted),
            static_cast<unsigned long long>(attr.dropped));
        out += ", \"p99_us\": " + num(attr.p99Us);
        out += ", \"p999_us\": " + num(attr.p999Us);
        out += ", \"p999_latency_us\": " + num(p.p999LatencyUs);
        out += ",\n    \"cohorts\": " +
               analysis::attributionCohortsJson(attr) + "}";
    }
    out += "\n  ]\n}\n";
    return out;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        sim::fatal("cannot open '%s' for writing", path.c_str());
    const std::size_t n =
        std::fwrite(content.data(), 1, content.size(), f);
    const int rc = std::fclose(f);
    if (n != content.size() || rc != 0)
        sim::fatal("short write to '%s'", path.c_str());
}

} // namespace aw::exp
