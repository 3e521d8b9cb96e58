#include "util/failpoint.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/metrics.h"
#include "util/numerics.h"
#include "util/strings.h"

namespace vdram {

namespace {

/**
 * The closed set of failpoint sites compiled into the codebase. Adding
 * a site means adding it here, wiring the hook, documenting it in
 * docs/runner.md and adding a matrix entry to tests/test_failpoint.cc.
 */
constexpr const char* kFailpointNames[] = {
    "ckpt.append",      // CheckpointWriter::append, mid-record
    "ckpt.consolidate", // consolidateCheckpoint, before the rename
    "fit.checkpoint",   // fit trajectory append, before the record
    "fit.step",         // fit generation start
    "fleet.heartbeat",  // supervisor liveness probe of a worker
    "fleet.route",      // router worker-selection for a request
    "fleet.spawn",      // supervisor worker process spawn
    "model.rebuild",    // DramPowerModel::build stage rebuild
    "runner.task",      // BatchRunner task invocation
    "serve.request",    // serve request evaluation
    "serve.response",   // serve response socket write
    "trace.slice",      // parallel trace campaign slice read
    "trace.stream",     // streaming trace chunk read
};

struct ActiveFailpoint {
    FailpointConfig config;
    std::atomic<long long> evaluations{0};
    std::atomic<long long> fires{0};
};

struct Registry {
    std::mutex mutex;
    // One slot per kFailpointNames entry; null when not activated.
    std::vector<std::shared_ptr<ActiveFailpoint>> slots{
        std::size(kFailpointNames)};
    /** Written under the mutex; read without it on the hot path. */
    std::atomic<bool> envLoaded{false};
    Status envStatus = Status::okStatus();
};

Registry&
registry()
{
    static Registry* r = new Registry; // never destroyed: sites may be
    return *r;                         // evaluated during static teardown
}

/** Any failpoint active? One relaxed load on the hot path. */
std::atomic<bool> g_any_active{false};

int
nameIndex(const std::string& name)
{
    for (size_t i = 0; i < std::size(kFailpointNames); ++i) {
        if (name == kFailpointNames[i])
            return static_cast<int>(i);
    }
    return -1;
}

Result<FailpointAction>
parseAction(const std::string& text)
{
    if (text == "error") return FailpointAction::Error;
    if (text == "crash") return FailpointAction::Crash;
    if (text == "stall") return FailpointAction::Stall;
    if (text == "delay") return FailpointAction::Delay;
    if (text == "partial-write") return FailpointAction::PartialWrite;
    if (text == "abort") return FailpointAction::Abort;
    return Error{"unknown failpoint action '" + text +
                     "' (error|crash|stall|delay:MS|partial-write|abort)",
                 0, 0, "", "E-FAILPOINT-SPEC"};
}

bool
parseLongLong(const std::string& text, long long min, long long max,
              long long& out)
{
    if (text.empty())
        return false;
    long long value = 0;
    auto [ptr, ec] = std::from_chars(text.data(),
                                     text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size() ||
        value < min || value > max)
        return false;
    out = value;
    return true;
}

/** Arm the sites VDRAM_FAILPOINTS names (under the registry lock). */
void
armFromEnvLocked(Registry& reg)
{
    const char* env = std::getenv("VDRAM_FAILPOINTS");
    if (!env || !*env)
        return;
    Result<std::vector<FailpointConfig>> parsed =
        parseFailpointSpec(env);
    if (!parsed.ok()) {
        // A malformed env spec must not arm half a chaos plan; record
        // the error for initFailpointsFromEnv() and stay inactive.
        reg.envStatus = parsed.error();
        return;
    }
    for (const FailpointConfig& config : parsed.value()) {
        int index = nameIndex(config.name);
        auto active = std::make_shared<ActiveFailpoint>();
        active->config = config;
        reg.slots[static_cast<size_t>(index)] = std::move(active);
        g_any_active.store(true, std::memory_order_release);
    }
}

/**
 * Ensure the environment spec was consumed (under the registry lock).
 * envLoaded is published only after the sites are armed: the lock-free
 * path in failpointHit() trusts "loaded and nothing armed".
 */
void
loadEnvLocked(Registry& reg)
{
    if (reg.envLoaded.load(std::memory_order_relaxed))
        return;
    armFromEnvLocked(reg);
    reg.envLoaded.store(true, std::memory_order_release);
}

} // namespace

std::vector<std::string>
failpointNames()
{
    return std::vector<std::string>(std::begin(kFailpointNames),
                                    std::end(kFailpointNames));
}

bool
isFailpointName(const std::string& name)
{
    return nameIndex(name) >= 0;
}

Result<std::vector<FailpointConfig>>
parseFailpointSpec(const std::string& spec)
{
    std::vector<FailpointConfig> configs;
    for (const std::string& raw : splitChar(spec, ',')) {
        std::string entry = trim(raw);
        if (entry.empty())
            continue;
        size_t eq = entry.find('=');
        if (eq == std::string::npos) {
            return Error{"failpoint entry '" + entry +
                             "' is not name=action",
                         0, 0, "", "E-FAILPOINT-SPEC"};
        }
        FailpointConfig config;
        config.name = trim(entry.substr(0, eq));
        if (!isFailpointName(config.name)) {
            return Error{"unknown failpoint '" + config.name + "' (" +
                             join(failpointNames(), ", ") + ")",
                         0, 0, "", "E-FAILPOINT-SPEC"};
        }
        std::string action_text = trim(entry.substr(eq + 1));

        // Strip "@rate" first, then ":arg".
        size_t at = action_text.rfind('@');
        if (at != std::string::npos) {
            std::string rate_text = trim(action_text.substr(at + 1));
            action_text = trim(action_text.substr(0, at));
            char* end = nullptr;
            double rate =
                std::strtod(rate_text.c_str(), &end);
            if (rate_text.empty() ||
                end != rate_text.c_str() + rate_text.size() ||
                !(rate >= 0.0) || !(rate <= 1.0)) {
                return Error{"failpoint rate '" + rate_text +
                                 "' must be a number in [0, 1]",
                             0, 0, "", "E-FAILPOINT-SPEC"};
            }
            config.rate = rate;
        }
        size_t colon = action_text.find(':');
        std::string arg_text;
        if (colon != std::string::npos) {
            arg_text = trim(action_text.substr(colon + 1));
            action_text = trim(action_text.substr(0, colon));
        }
        Result<FailpointAction> action = parseAction(action_text);
        if (!action.ok())
            return action.error();
        config.action = action.value();
        if (config.action == FailpointAction::Delay) {
            if (!parseLongLong(arg_text, 1, 60'000, config.delayMs)) {
                return Error{"delay needs ':MS' in [1, 60000], got '" +
                                 arg_text + "'",
                             0, 0, "", "E-FAILPOINT-SPEC"};
            }
        } else if (!arg_text.empty()) {
            if (!parseLongLong(arg_text, 1, 1'000'000'000,
                               config.hitIndex)) {
                return Error{"hit index '" + arg_text +
                                 "' must be a positive integer",
                             0, 0, "", "E-FAILPOINT-SPEC"};
            }
        }
        configs.push_back(std::move(config));
    }
    return configs;
}

void
configureFailpoints(const std::vector<FailpointConfig>& configs)
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    reg.envStatus = Status::okStatus();
    for (auto& slot : reg.slots)
        slot.reset();
    bool any = false;
    for (const FailpointConfig& config : configs) {
        int index = nameIndex(config.name);
        if (index < 0 || config.action == FailpointAction::Off)
            continue;
        auto active = std::make_shared<ActiveFailpoint>();
        active->config = config;
        reg.slots[static_cast<size_t>(index)] = std::move(active);
        any = true;
    }
    g_any_active.store(any, std::memory_order_release);
    // Explicit configuration overrides the env; published after the
    // slots, as in loadEnvLocked().
    reg.envLoaded.store(true, std::memory_order_release);
}

void
clearFailpoints()
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& slot : reg.slots)
        slot.reset();
    reg.envLoaded = false;
    reg.envStatus = Status::okStatus();
    g_any_active.store(false, std::memory_order_release);
}

Status
initFailpointsFromEnv()
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    loadEnvLocked(reg);
    return reg.envStatus;
}

FailpointHit
failpointHit(const char* name, std::uint64_t seed)
{
    Registry& reg = registry();
    // Once the environment has been read and nothing is armed, a site
    // costs two atomic loads and takes no lock (campaign workers
    // evaluate sites on every task). envLoaded is read first: it is
    // published after the env's sites are armed, so g_any_active read
    // after it is current. Otherwise the first use loads the env lazily
    // under the lock.
    if (reg.envLoaded.load(std::memory_order_acquire) &&
        !g_any_active.load(std::memory_order_acquire))
        return FailpointHit{};
    FailpointConfig config;
    long long evaluation = 0;
    std::shared_ptr<ActiveFailpoint> active;
    {
        std::lock_guard<std::mutex> lock(reg.mutex);
        loadEnvLocked(reg);
        int index = nameIndex(name);
        if (index < 0)
            return FailpointHit{};
        active = reg.slots[static_cast<size_t>(index)];
        if (!active)
            return FailpointHit{};
        config = active->config;
        evaluation = active->evaluations.fetch_add(
                         1, std::memory_order_relaxed) +
                     1;
    }
    if (config.hitIndex > 0 && evaluation != config.hitIndex)
        return FailpointHit{};
    if (config.rate < 1.0) {
        // Seed-deterministic when the site has a stable per-task seed
        // (same decision across retries and resume legs); otherwise
        // counter-deterministic within one process run.
        std::uint64_t word =
            seed != kFailpointNoSeed
                ? deriveStreamSeed(seed, 0xFA170u)
                : deriveStreamSeed(static_cast<std::uint64_t>(evaluation),
                                   0xFA171u);
        if (uniformDoubleOf(word) >= config.rate)
            return FailpointHit{};
    }
    active->fires.fetch_add(1, std::memory_order_relaxed);
    if (metricsEnabled()) {
        globalMetrics().counter("failpoint.fires").add();
        globalMetrics()
            .counter(std::string("failpoint.") + name + ".fires")
            .add();
    }
    if (config.action == FailpointAction::Delay) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(config.delayMs));
        return FailpointHit{FailpointAction::Delay, config.delayMs};
    }
    return FailpointHit{config.action, 0};
}

Status
checkFailpoint(const char* name, const char* code, std::uint64_t seed)
{
    FailpointHit hit = failpointHit(name, seed);
    switch (hit.action) {
    case FailpointAction::Off:
    case FailpointAction::Delay:
    case FailpointAction::PartialWrite:
    case FailpointAction::Stall:
        return Status::okStatus();
    case FailpointAction::Error:
        return Error{std::string("injected failure at failpoint '") +
                         name + "'",
                     0, 0, "", code};
    case FailpointAction::Crash:
        throw std::runtime_error(
            std::string("injected crash at failpoint '") + name + "'");
    case FailpointAction::Abort:
        std::abort();
    }
    return Status::okStatus();
}

long long
failpointFireCount(const std::string& name)
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    int index = nameIndex(name);
    if (index < 0)
        return 0;
    const std::shared_ptr<ActiveFailpoint>& active =
        reg.slots[static_cast<size_t>(index)];
    return active ? active->fires.load(std::memory_order_relaxed) : 0;
}

} // namespace vdram
