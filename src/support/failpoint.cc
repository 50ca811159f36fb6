#include "support/failpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "support/lex.h"
#include "support/logging.h"
#include "support/rng.h"

namespace uov {
namespace failpoint {

namespace {

/** Safety clamp: an injected delay never exceeds this. */
constexpr int64_t kMaxDelayMs = 100;

} // namespace

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

Registry::Registry()
{
    const char *env = std::getenv("UOV_FAILPOINTS");
    if (env == nullptr || *env == '\0')
        return;
    std::string error;
    if (!armFromSpec(env, &error))
        UOV_LOG_WARN("ignoring malformed UOV_FAILPOINTS entry: "
                     << error);
}

void
Registry::arm(const std::string &site, Config config)
{
    UOV_REQUIRE(!site.empty(), "fail-point site name is empty");
    UOV_REQUIRE(config.probability >= 0.0 && config.probability <= 1.0,
                "fail-point probability " << config.probability
                                          << " outside [0, 1]");
    std::lock_guard<std::mutex> lock(_mutex);
    Point &point = _points[site];
    if (!point.armed)
        _armed_count.fetch_add(1, std::memory_order_relaxed);
    point.armed = true;
    point.config = config;
    point.rng_state = config.seed;
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &entry : _points) {
        if (entry.second.armed)
            _armed_count.fetch_sub(1, std::memory_order_relaxed);
        entry.second.armed = false;
    }
    _points.clear();
    _total_fires.store(0, std::memory_order_relaxed);
}

bool
Registry::armFromSpec(const std::string &spec, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };

    Fields entries(spec, ',');
    for (std::string_view entry; entries.next(entry);) {
        if (entry.empty())
            continue;

        // Split on ':' into site, prob, [seed], [action].
        std::vector<std::string_view> parts;
        Fields fields(entry, ':');
        for (std::string_view part; fields.next(part);)
            parts.push_back(part);
        auto bad = [&](const char *why) {
            return fail("'" + std::string(entry) + "' " + why);
        };
        if (parts.size() < 2 || parts.size() > 4)
            return bad("is not site:prob[:seed[:action]]");
        if (parts[0].empty())
            return bad("has an empty site name");

        Config config;
        if (!parseWholeNumber(parts[1], config.probability) ||
            (parts.size() >= 3 && !parseWholeNumber(parts[2], config.seed)))
            return bad("has a non-numeric field");
        if (config.probability < 0.0 || config.probability > 1.0)
            return bad("probability outside [0, 1]");

        if (parts.size() == 4) {
            std::string_view act = parts[3];
            if (act == "throw") {
                config.action = Action::Throw;
            } else if (act.starts_with("delay")) {
                config.action = Action::Delay;
                std::string_view ms = act.substr(5);
                if (!ms.empty() && (!parseWholeNumber(ms, config.delay_ms) ||
                                    config.delay_ms < 0))
                    return bad("has a bad delay count");
            } else {
                return bad("action must be throw or delayN");
            }
        }
        arm(std::string(parts[0]), config);
    }
    return true;
}

void
Registry::hit(const std::string &site)
{
    if (_armed_count.load(std::memory_order_relaxed) == 0)
        return;

    Action action;
    int64_t delay_ms = 0;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _points.find(site);
        if (it == _points.end() || !it->second.armed)
            return;
        Point &point = it->second;
        SplitMix64 rng(point.rng_state);
        double draw = rng.nextDouble();
        // Persist the advanced stream so successive hits walk one
        // deterministic sequence per site.
        point.rng_state += 0x9e3779b97f4a7c15ULL;
        if (draw >= point.config.probability)
            return;
        ++point.fire_count;
        _total_fires.fetch_add(1, std::memory_order_relaxed);
        action = point.config.action;
        delay_ms = std::min(point.config.delay_ms, kMaxDelayMs);
    }

    if (action == Action::Throw)
        throw FailPointError("fail point '" + site + "' fired");
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
}

uint64_t
Registry::fires(const std::string &site) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _points.find(site);
    return it == _points.end() ? 0 : it->second.fire_count;
}

std::vector<std::string>
Registry::armedSites() const
{
    std::vector<std::string> sites;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (const auto &entry : _points)
            if (entry.second.armed)
                sites.push_back(entry.first);
    }
    std::sort(sites.begin(), sites.end());
    return sites;
}

} // namespace failpoint
} // namespace uov
