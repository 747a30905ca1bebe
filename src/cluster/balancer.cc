#include "cluster/balancer.hh"

#include <bit>
#include <utility>

namespace aw::cluster {

BalancerView::BalancerView(const std::vector<unsigned> &counts,
                           unsigned pack_capacity,
                           const std::vector<power::Watts> *budgets,
                           double watts_per_request)
    : _counts(counts), _capacity(pack_capacity), _budgets(budgets),
      _wattsPerRequest(watts_per_request)
{
    if (_capacity == 0)
        return;
    const std::size_t words = (counts.size() + 63) / 64;
    _bits.assign(words, 0);
    _summary.assign((words + 63) / 64, 0);
    for (std::size_t i = 0; i < counts.size(); ++i)
        if (counts[i] < _capacity)
            set(i);
}

std::size_t
BalancerView::firstUnderCapacity(unsigned capacity) const
{
    if (_capacity == 0 || capacity != _capacity)
        return FleetView::firstUnderCapacity(capacity);
    for (std::size_t s = 0; s < _summary.size(); ++s) {
        if (_summary[s] == 0)
            continue;
        const std::size_t w = s * 64 + std::countr_zero(_summary[s]);
        return w * 64 + std::countr_zero(_bits[w]);
    }
    return _counts.size();
}

double
BalancerView::headroomWatts(std::size_t i) const
{
    if (!_budgets)
        return FleetView::headroomWatts(i);
    return (*_budgets)[i] - _wattsPerRequest * _counts[i];
}

EstimateStream::EstimateStream(workload::ServiceModel &service,
                               sim::Rng &rng, sim::ThreadPool *pool)
    : _service(service), _rng(rng), _pool(pool), _ready(kChunk)
{
    if (_pool) {
        _ahead.resize(kChunk);
        _inFlight = _pool->async([this] { fill(_ahead); });
    }
}

EstimateStream::~EstimateStream()
{
    if (_inFlight.valid())
        _inFlight.wait();
}

void
EstimateStream::fill(std::vector<sim::Tick> &chunk)
{
    const sim::Frequency ref = _service.referenceFrequency();
    for (sim::Tick &t : chunk)
        t = _service.draw(_rng).duration(ref);
}

void
EstimateStream::advance()
{
    if (_pool) {
        _inFlight.wait();
        std::swap(_ready, _ahead);
        _inFlight = _pool->async([this] { fill(_ahead); });
    } else {
        fill(_ready);
    }
    _pos = 0;
}

} // namespace aw::cluster
