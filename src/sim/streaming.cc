#include "sim/streaming.h"

#include "support/error.h"
#include "support/trace.h"

namespace uov {

MultiMachineSim::MultiMachineSim(
    const std::vector<MachineConfig> &configs)
{
    UOV_REQUIRE(!configs.empty(),
                "streaming simulation needs at least one machine");
    _systems.reserve(configs.size());
    for (const MachineConfig &cfg : configs)
        _systems.push_back(std::make_unique<MemorySystem>(cfg));
}

MemorySystem &
MultiMachineSim::system(size_t i)
{
    UOV_REQUIRE(i < _systems.size(),
                "machine index " << i << " out of range");
    return *_systems[i];
}

StreamingSim
MultiMachineSim::policy()
{
    StreamingSim p;
    p.systems.reserve(_systems.size());
    for (auto &ms : _systems)
        p.systems.push_back(ms.get());
    return p;
}

uint64_t
MultiMachineSim::eventsProcessed() const
{
    uint64_t n = 0;
    for (const auto &ms : _systems)
        n += ms->accesses() + ms->branches();
    return n;
}

void
MultiMachineSim::traceCycleCounters() const
{
    if (!trace::tracingEnabled())
        return;
    static const char *const kKeys[] = {"m0", "m1", "m2", "m3",
                                        "m4", "m5", "m6", "m7"};
    constexpr size_t kMaxKeys = sizeof kKeys / sizeof kKeys[0];
    for (size_t i = 0; i < _systems.size() && i < kMaxKeys; ++i)
        trace::counter("sim.machine.cycles", kKeys[i],
                       static_cast<int64_t>(_systems[i]->cycles()));
}

} // namespace uov
