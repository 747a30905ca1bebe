/**
 * @file
 * The sweep-axis registry: one constexpr entry per grid coordinate.
 *
 * Grid expansion, labels and validation (spec.cc), result queries
 * and runPoint's config overrides (runner.cc), the coordinate
 * columns of every artifact emitter (emit.cc) and awsweep's axis
 * flags, usage text and summary columns all iterate this table. An
 * entry binds the existing named fields of ExperimentSpec, GridPoint
 * and SweepResult::Query, so adding an axis is one entry in axis.cc.
 */

#ifndef AW_EXP_AXIS_HH
#define AW_EXP_AXIS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "exp/runner.hh"
#include "exp/spec.hh"

namespace aw::cluster {
struct FleetConfig;
} // namespace aw::cluster

namespace aw::exp {

/** One coordinate of a grid point, typed for rendering. */
using Coord = std::variant<const std::string *, double, unsigned>;

struct Axis
{
    /** CSV/JSON key; also names the axis in messages. */
    const char *key = nullptr;
    /** Position among the artifact coordinate columns. It differs
     *  from the table's (expansion) order in one place: variant is
     *  emitted before servers but nests inside qps. */
    unsigned column = 0;
    /** The spec must give values and every point shows the
     *  coordinate. An unrequired axis left empty runs its default,
     *  which labels omit and the summary shows as "-". */
    bool required = false;
    /** Emit the column only when the spec sweeps the axis, so older
     *  specs' artifacts keep their bytes. */
    bool optionalColumn = false;
    /** printf formats of the label fragment and the summary cell. */
    const char *label = "%s";
    const char *cell = "%s";
    /** awsweep summary heading (nullptr = no column). */
    const char *heading = nullptr;
    /** awsweep flag (nullptr = none) and its usage text. */
    const char *flag = nullptr;
    const char *metavar = "A,B";
    const char *help = nullptr;
    /** Numeric values must be finite and > 0 (positive) or >= 0;
     *  rule says which in the fatal() message. */
    bool positive = false;
    const char *rule = nullptr;

    /** @{ Bindings; axis.cc's bind() generates all but overrides. */
    /** Values the spec gives (0 = not swept). */
    std::size_t (*size)(const ExperimentSpec &) = nullptr;
    /** Set @p pt's coordinate to grid value @p i. Axes earlier in
     *  the table are already set. */
    void (*assign)(const ExperimentSpec &, std::size_t i,
                   GridPoint &) = nullptr;
    Coord (*value)(const GridPoint &) = nullptr;
    bool (*matches)(const SweepResult::Query &,
                    const GridPoint &) = nullptr;
    /** Restrict a query to @p pt's coordinate. */
    void (*pin)(SweepResult::Query &, const GridPoint &) = nullptr;
    /** Parse the flag's argument into the spec; fatal() if bad. */
    void (*parse)(const Axis &, ExperimentSpec &,
                  const char *arg) = nullptr;
    /** validate()'s checks of this axis. */
    void (*check)(const Axis &, const ExperimentSpec &) = nullptr;
    /** Override the point's configuration; called only when the
     *  coordinate is shown (set). */
    void (*apply)(const GridPoint &, cluster::FleetConfig &) = nullptr;
    /** @} */

    /** Grid values the axis contributes (>= 1 once validated). */
    std::size_t count(const ExperimentSpec &spec) const;
    bool swept(const ExperimentSpec &spec) const
    {
        return size(spec) > 0;
    }
    /** Whether artifacts of @p spec carry this axis's column. */
    bool emitted(const ExperimentSpec &spec) const
    {
        return !optionalColumn || swept(spec);
    }
    /** Required, or @p pt's coordinate is not the default. */
    bool shown(const GridPoint &pt) const;
    /** The coordinate through a printf format. */
    std::string format(const char *fmt, const GridPoint &pt) const;
};

/** The registry, in expansion order (outer to inner). */
std::span<const Axis> axes();

/** The axis with CSV/JSON key @p key; fatal() if none. */
const Axis &axis(std::string_view key);

/** @{ Flag-value parsers of the axis flags, awsweep and awsim;
 *  fatal() naming the flag on malformed input. */
unsigned parseUnsigned(const char *flag, const char *value);
double parseDouble(const char *flag, const char *value);
std::uint64_t parseUint64(const char *flag, const char *value);
/** @} */

} // namespace aw::exp

#endif // AW_EXP_AXIS_HH
