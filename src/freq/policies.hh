/**
 * @file
 * The built-in frequency governors and the name table behind
 * `--freq-governor` / the `freqPolicies` sweep axis.
 *
 * Mirrors cstate/governors.hh, minus the `:arg` part (no kind takes
 * one): a spec is a kind name, and unknown kinds die with the full
 * kind list. Built-ins follow the Linux cpufreq lineage:
 *
 *   performance   pin the top level (P1); zero events
 *   powersave     pin the bottom level (Pn); zero events
 *   ondemand      sampled: jump to P1 above the up-threshold, else
 *                 proportional-speed relation-L pick
 *   conservative  sampled: step one level up/down on hysteresis
 *                 thresholds
 *   racetohalt    edge-driven: P1 while serving, Pn the moment the
 *                 queue drains; zero periodic events
 */

#ifndef AW_FREQ_POLICIES_HH
#define AW_FREQ_POLICIES_HH

#include <memory>
#include <string>
#include <vector>

#include "freq/freq_policy.hh"

namespace aw::freq {

/** Always the top ladder level (cpufreq `performance`). */
class PerformancePolicy : public FreqPolicy
{
  public:
    using FreqPolicy::FreqPolicy;
    std::string spec() const override { return "performance"; }
    std::size_t select(sim::Tick, double) override
    {
        return _ladder.top();
    }
    std::unique_ptr<FreqPolicy> clone() const override
    {
        return std::make_unique<PerformancePolicy>(_ladder);
    }
};

/** Always the bottom ladder level (cpufreq `powersave`). */
class PowersavePolicy : public FreqPolicy
{
  public:
    using FreqPolicy::FreqPolicy;
    std::string spec() const override { return "powersave"; }
    std::size_t select(sim::Tick, double) override { return 0; }
    std::unique_ptr<FreqPolicy> clone() const override
    {
        return std::make_unique<PowersavePolicy>(_ladder);
    }
};

/**
 * cpufreq `ondemand`: at each sampling tick, a window load at or
 * above the up-threshold jumps straight to the top level; below it
 * the target frequency scales proportionally with load and the
 * lowest at-or-above ladder level (relation L) is picked.
 */
class OndemandPolicy : public FreqPolicy
{
  public:
    static constexpr double kUpThreshold = 0.8;
    static constexpr sim::Tick kSamplePeriod = 1000 * sim::kTicksPerUs;

    using FreqPolicy::FreqPolicy;
    std::string spec() const override { return "ondemand"; }
    std::size_t select(sim::Tick now, double load) override;
    sim::Tick evalInterval() const override { return kSamplePeriod; }
    std::unique_ptr<FreqPolicy> clone() const override
    {
        return std::make_unique<OndemandPolicy>(_ladder);
    }
};

/**
 * cpufreq `conservative`: like ondemand but graceful -- one ladder
 * step at a time, up above the up-threshold, down below the
 * down-threshold, at a slower sampling cadence.
 */
class ConservativePolicy : public FreqPolicy
{
  public:
    static constexpr double kUpThreshold = 0.8;
    static constexpr double kDownThreshold = 0.2;
    static constexpr sim::Tick kSamplePeriod =
        2000 * sim::kTicksPerUs;

    explicit ConservativePolicy(PStateLadder ladder)
        : FreqPolicy(ladder), _level(ladder.top())
    {}
    std::string spec() const override { return "conservative"; }
    std::size_t select(sim::Tick now, double load) override;
    void reset() override { _level = _ladder.top(); }
    sim::Tick evalInterval() const override { return kSamplePeriod; }
    std::unique_ptr<FreqPolicy> clone() const override
    {
        return std::make_unique<ConservativePolicy>(_ladder);
    }

  private:
    std::size_t _level;
};

/**
 * Race-to-halt: sprint at P1 whenever there is work so the idle
 * governor gets the longest possible gaps to sink into deep C6,
 * drop to Pn the moment the queue drains. Edge-driven -- it adds no
 * periodic events, only the ramp on each busy/idle edge.
 */
class RaceToHaltPolicy : public FreqPolicy
{
  public:
    using FreqPolicy::FreqPolicy;
    std::string spec() const override { return "racetohalt"; }
    std::size_t select(sim::Tick, double) override
    {
        return _ladder.top();
    }
    std::size_t observe(sim::Tick, bool busy, std::size_t) override
    {
        return busy ? _ladder.top() : 0;
    }
    std::unique_ptr<FreqPolicy> clone() const override
    {
        return std::make_unique<RaceToHaltPolicy>(_ladder);
    }
};

// ------------------------------------------------------------------

/**
 * Build a policy by kind name through the one name table of kinds.
 * No kind takes an argument, so a spec is exactly a kind; empty and
 * unknown specs are fatal(), the latter with the known list.
 */
std::unique_ptr<FreqPolicy>
makeFreqPolicy(const std::string &spec, const PStateLadder &ladder);

/** The table's kinds, in table order. */
const std::vector<std::string> &freqPolicyKinds();

} // namespace aw::freq

#endif // AW_FREQ_POLICIES_HH
