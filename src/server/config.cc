#include "server/config.hh"

#include "sim/registry.hh"

namespace aw::server {

namespace {

const sim::RegistryEntry<DispatchPolicy> kDispatchPolicies[] = {
    {"static", DispatchPolicy::Static},
    {"packing", DispatchPolicy::Packing},
};

} // namespace

const char *
name(DispatchPolicy policy)
{
    for (const auto &entry : kDispatchPolicies)
        if (entry.value == policy)
            return entry.name;
    return "?";
}

DispatchPolicy
dispatchPolicyByName(const std::string &name)
{
    return sim::byName(kDispatchPolicies, name, "dispatch policy");
}

const std::vector<std::string> &
dispatchPolicyNames()
{
    static const std::vector<std::string> names =
        sim::registryNames(kDispatchPolicies);
    return names;
}

ServerConfig
ServerConfig::baseline()
{
    ServerConfig c;
    c.name = "Baseline";
    c.cstates = cstate::CStateConfig::legacyBaseline();
    c.turboEnabled = true;
    return c;
}

ServerConfig
ServerConfig::awBaseline()
{
    ServerConfig c;
    c.name = "AW";
    c.cstates = cstate::CStateConfig::aw();
    c.turboEnabled = true;
    return c;
}

ServerConfig
ServerConfig::ntBaseline()
{
    ServerConfig c;
    c.name = "NT_Baseline";
    c.cstates = cstate::CStateConfig::legacyBaseline();
    c.turboEnabled = false;
    return c;
}

ServerConfig
ServerConfig::ntNoC6()
{
    ServerConfig c;
    c.name = "NT_No_C6";
    c.cstates = cstate::CStateConfig::legacyNoC6();
    c.turboEnabled = false;
    return c;
}

ServerConfig
ServerConfig::ntNoC6NoC1e()
{
    ServerConfig c;
    c.name = "NT_No_C6,No_C1E";
    c.cstates = cstate::CStateConfig::legacyNoC6NoC1E();
    c.turboEnabled = false;
    return c;
}

ServerConfig
ServerConfig::ntAwNoC6NoC1e()
{
    ServerConfig c;
    c.name = "NT_C6A,No_C6,No_C1E";
    c.cstates = cstate::CStateConfig::awNoC6NoC1E();
    c.turboEnabled = false;
    return c;
}

ServerConfig
ServerConfig::tNoC6()
{
    ServerConfig c;
    c.name = "T_No_C6";
    c.cstates = cstate::CStateConfig::legacyNoC6();
    c.turboEnabled = true;
    return c;
}

ServerConfig
ServerConfig::tNoC6NoC1e()
{
    ServerConfig c;
    c.name = "T_No_C6,No_C1E";
    c.cstates = cstate::CStateConfig::legacyNoC6NoC1E();
    c.turboEnabled = true;
    return c;
}

ServerConfig
ServerConfig::tAwNoC6NoC1e()
{
    ServerConfig c;
    c.name = "T_C6A,No_C6,No_C1E";
    c.cstates = cstate::CStateConfig::awNoC6NoC1E();
    c.turboEnabled = true;
    return c;
}

ServerConfig
ServerConfig::legacyC1C6()
{
    ServerConfig c;
    c.name = "Baseline_C1_C6";
    c.cstates = cstate::CStateConfig::legacyC1C6();
    c.turboEnabled = false;
    return c;
}

ServerConfig
ServerConfig::legacyC1Only()
{
    ServerConfig c;
    c.name = "No_C6";
    c.cstates = cstate::CStateConfig::legacyNoC6NoC1E();
    c.turboEnabled = false;
    return c;
}

ServerConfig
ServerConfig::awC6aOnly()
{
    ServerConfig c;
    c.name = "AW_C6A";
    c.cstates = cstate::CStateConfig::awNoC6NoC1E();
    c.turboEnabled = false;
    return c;
}

} // namespace aw::server
