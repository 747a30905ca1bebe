/**
 * @file
 * Name tables: the one lookup behind every string-named family --
 * workloads, server configs, idle governors, DVFS governors, fleet
 * routing and core dispatch.
 *
 * A family is a single const array of RegistryEntry rows. byName(),
 * the "unknown <what> '<name>' (a|b|c)" diagnostic and the
 * advertised name list all derive from that one array, so a row can
 * never be half-registered. Lookups run once per server or fleet
 * construction, never per event.
 */

#ifndef AW_SIM_REGISTRY_HH
#define AW_SIM_REGISTRY_HH

#include <string>
#include <string_view>
#include <vector>

#include "sim/logging.hh"

namespace aw::sim {

/** One row: a name and what it resolves to (a factory or a value). */
template <typename V> struct RegistryEntry
{
    const char *name;
    V value;
};

/** The rows' names joined as "a|b|c", for diagnostics. */
template <typename Table>
std::string
joinNames(const Table &table)
{
    std::string known;
    for (const auto &entry : table) {
        if (!known.empty())
            known += '|';
        known += entry.name;
    }
    return known;
}

/** The value of the row named @p name; fatal() with the known list
 *  when no row matches. @p what names the family ("workload"). */
template <typename Table>
const auto &
byName(const Table &table, std::string_view name, const char *what)
{
    for (const auto &entry : table)
        if (name == entry.name)
            return entry.value;
    fatal("unknown %s '%.*s' (%s)", what, static_cast<int>(name.size()),
          name.data(), joinNames(table).c_str());
}

/** The rows' names in table order, for CLIs, sweeps and tests. */
template <typename Table>
std::vector<std::string>
registryNames(const Table &table)
{
    std::vector<std::string> names;
    for (const auto &entry : table)
        names.emplace_back(entry.name);
    return names;
}

} // namespace aw::sim

#endif // AW_SIM_REGISTRY_HH
