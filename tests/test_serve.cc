/**
 * @file
 * Serve-daemon tests over real unix-domain sockets: protocol parsing,
 * the session/model-cache flow, and the robustness contract — fault
 * quarantine (serve.request/serve.response failpoints), deadlines,
 * admission control and the graceful-drain accounting invariant
 * (accepted == written + failed).
 *
 * Part of the "robustness" ctest label.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/sensitivity.h"
#include "loopback_port.h"
#include "protocol/idd.h"
#include "serve/model_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "dsl/writer.h"
#include "presets/presets.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace vdram {
namespace {

std::string
socketPath(const std::string& name)
{
    // Unix socket paths are limited to ~108 bytes; keep them short.
    return "/tmp/vdram_serve_" + name + "_" +
           std::to_string(::getpid()) + ".sock";
}

/** Start a daemon on its own thread; stops and joins on destruction. */
class DaemonFixture {
  public:
    explicit DaemonFixture(ServeOptions options)
        : options_(std::move(options))
    {
        options_.stopFlag = &stop_;
        options_.onReady = [this] { ready_.store(true); };
        thread_ = std::thread([this] { result_ = runServeServer(options_); });
        // The listener is up once onReady ran; bounded wait.
        for (int i = 0; i < 500 && !ready_.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    ~DaemonFixture()
    {
        stopAndJoin();
        std::remove(options_.socketPath.c_str());
    }

    bool ready() const { return ready_.load(); }

    ServeStats stopAndJoin()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        if (!result_.ok())
            return ServeStats{};
        return result_.value();
    }

    Result<std::string> send(const std::string& lines)
    {
        return serveSendLines(options_.socketPath, options_.port, lines);
    }

  private:
    ServeOptions options_;
    std::atomic<bool> stop_{false};
    std::atomic<bool> ready_{false};
    std::thread thread_;
    Result<ServeStats> result_ = ServeStats{};
};

std::vector<std::string>
lines(const std::string& text)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        if (end > start)
            out.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

// ---------------------------------------------------------------------
// Protocol parsing (no sockets)
// ---------------------------------------------------------------------

TEST(ServeProtocolTest, ParsesAndValidatesRequests)
{
    Result<ServeRequest> ping =
        parseServeRequest("{\"id\":7,\"op\":\"ping\"}");
    ASSERT_TRUE(ping.ok());
    EXPECT_EQ(ping.value().id, 7);
    EXPECT_EQ(ping.value().op, ServeOp::Ping);

    Result<ServeRequest> load = parseServeRequest(
        "{\"id\":8,\"op\":\"load\",\"preset\":\"ddr3_2g_55\","
        "\"deadline\":1.5}");
    ASSERT_TRUE(load.ok());
    EXPECT_EQ(load.value().preset, "ddr3_2g_55");
    EXPECT_DOUBLE_EQ(load.value().deadlineSeconds, 1.5);
}

TEST(ServeProtocolTest, RejectsMalformedRequestsWithIdEcho)
{
    const char* bad[] = {
        "not json at all",
        "[1,2,3]",
        "{\"id\":3}",                               // missing op
        "{\"id\":3,\"op\":\"explode\"}",            // unknown op
        "{\"id\":3,\"op\":\"load\"}",               // load w/o source
        "{\"id\":3,\"op\":\"idd\"}",                // idd w/o measure
        "{\"id\":3,\"op\":\"perturb\"}",            // perturb w/o param
        "{\"id\":3,\"op\":\"ping\",\"factor\":-1}", // bad factor
        "{\"id\":3,\"op\":\"ping\",\"deadline\":1e9}",
    };
    for (const char* line : bad) {
        Result<ServeRequest> parsed = parseServeRequest(line);
        EXPECT_FALSE(parsed.ok()) << "accepted: " << line;
        if (!parsed.ok()) {
            EXPECT_EQ(parsed.error().code, "E-SERVE-REQUEST");
        }
    }
    // The id survives into the error so the response can echo it.
    Result<ServeRequest> parsed =
        parseServeRequest("{\"id\":42,\"op\":\"explode\"}");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().line, 42);
}

TEST(ServeProtocolTest, RenderServeErrorShape)
{
    std::string body = renderServeError(9, "E-SERVE-OVERLOAD", "full");
    EXPECT_EQ(body, "{\"id\":9,\"ok\":false,\"code\":"
                    "\"E-SERVE-OVERLOAD\",\"error\":\"full\"}");
}

// ---------------------------------------------------------------------
// Model cache (no sockets)
// ---------------------------------------------------------------------

TEST(ModelCacheTest, LruEvictionAndHitAccounting)
{
    ModelCache cache(2);
    DramDescription desc = preset2GbDdr3_55();
    EXPECT_EQ(cache.get(1), nullptr);
    cache.put(1, desc);
    cache.put(2, desc);
    EXPECT_NE(cache.get(1), nullptr); // refreshes 1; 2 is now LRU
    cache.put(3, desc);               // evicts 2
    EXPECT_EQ(cache.get(2), nullptr);
    EXPECT_NE(cache.get(1), nullptr);
    EXPECT_NE(cache.get(3), nullptr);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.hits(), 3);
    EXPECT_EQ(cache.misses(), 2);
    EXPECT_EQ(cache.evictions(), 1);
}

TEST(ModelCacheTest, CanonicalTextHashingSharesEntries)
{
    // Two loads of the same preset canonicalize to the same text, so
    // they share one cache key — the property the daemon's cached-load
    // fast path is keyed on.
    EXPECT_EQ(fnv1a64(writeDescription(preset2GbDdr3_55())),
              fnv1a64(writeDescription(preset2GbDdr3_55())));
    EXPECT_NE(fnv1a64(writeDescription(preset2GbDdr3_55())),
              fnv1a64(writeDescription(preset128MbSdr170())));
}

// ---------------------------------------------------------------------
// End-to-end daemon behaviour
// ---------------------------------------------------------------------

ServeOptions
baseOptions(const std::string& name)
{
    ServeOptions options;
    options.socketPath = socketPath(name);
    options.threads = 2;
    options.queueCapacity = 8;
    options.deadlineSeconds = 5;
    options.idleSessionSeconds = 30;
    return options;
}

TEST(ServeDaemonTest, LoadEvaluatePerturbFlowAndCacheHit)
{
    DaemonFixture daemon(baseOptions("flow"));
    ASSERT_TRUE(daemon.ready());

    Result<std::string> first = daemon.send(
        "{\"id\":1,\"op\":\"load\",\"preset\":\"ddr3_2g_55\"}\n"
        "{\"id\":2,\"op\":\"evaluate\"}\n"
        "{\"id\":3,\"op\":\"perturb\",\"param\":\"External supply "
        "voltage Vdd\",\"factor\":0.9}\n"
        "{\"id\":4,\"op\":\"evaluate\"}\n");
    ASSERT_TRUE(first.ok()) << first.error().toString();
    std::vector<std::string> replies = lines(first.value());
    ASSERT_EQ(replies.size(), 4u);
    EXPECT_NE(replies[0].find("\"ok\":true"), std::string::npos);
    EXPECT_NE(replies[0].find("\"cached\":false"), std::string::npos);
    EXPECT_NE(replies[2].find("\"deltaApplies\":1"), std::string::npos);
    // The perturbed evaluation must differ from the nominal one.
    EXPECT_NE(replies[1], replies[3]);

    // A second connection loading the same preset hits the cache.
    Result<std::string> second = daemon.send(
        "{\"id\":1,\"op\":\"load\",\"preset\":\"ddr3_2g_55\"}\n");
    ASSERT_TRUE(second.ok());
    EXPECT_NE(second.value().find("\"cached\":true"),
              std::string::npos);

    ServeStats stats = daemon.stopAndJoin();
    EXPECT_TRUE(stats.drained);
    EXPECT_EQ(stats.requestsAccepted,
              stats.responsesWritten + stats.responsesFailed);
}

TEST(ServeDaemonTest, CacheHitAnswersLikeAMiss)
{
    // Every preset and every perturbable parameter, structural and
    // value alike: load, perturb x0.9, then all 11 IDDs. Consecutive
    // loads name different presets, so with one cache slot every load
    // of the first daemon misses; the second daemon is warmed with
    // every preset first, so every load hits. A hit must build the
    // same model as a miss, so every answer must match byte for byte.
    const std::vector<NamedPreset>& presets = namedPresets();
    std::string batch;
    std::string warm;
    long long id = 0;
    for (const NamedPreset& preset : presets) {
        warm += strformat("{\"id\":%lld,\"op\":\"load\",\"preset\":"
                          "\"%s\"}\n",
                          ++id, preset.name.c_str());
    }
    for (const SweepParam& param : sweepParameters(SweepMode::Detailed)) {
        for (const NamedPreset& preset : presets) {
            batch += strformat("{\"id\":%lld,\"op\":\"load\","
                               "\"preset\":\"%s\"}\n",
                               ++id, preset.name.c_str());
            batch += strformat("{\"id\":%lld,\"op\":\"perturb\","
                               "\"param\":\"%s\",\"factor\":0.9}\n",
                               ++id, param.name.c_str());
            for (int m = 0; m < kIddMeasureCount; ++m) {
                batch += strformat(
                    "{\"id\":%lld,\"op\":\"idd\",\"measure\":\"%s\"}\n",
                    ++id,
                    toLower(iddName(static_cast<IddMeasure>(m))).c_str());
            }
        }
    }

    ServeOptions missOptions = baseOptions("miss");
    missOptions.cacheCapacity = 1;
    ServeOptions hitOptions = baseOptions("hit");
    hitOptions.cacheCapacity = presets.size();
    DaemonFixture missDaemon(missOptions);
    DaemonFixture hitDaemon(hitOptions);
    ASSERT_TRUE(missDaemon.ready());
    ASSERT_TRUE(hitDaemon.ready());
    ASSERT_TRUE(hitDaemon.send(warm).ok());
    Result<std::string> missed = missDaemon.send(batch);
    Result<std::string> hit = hitDaemon.send(batch);
    ASSERT_TRUE(missed.ok()) << missed.error().toString();
    ASSERT_TRUE(hit.ok()) << hit.error().toString();
    std::vector<std::string> missLines = lines(missed.value());
    std::vector<std::string> hitLines = lines(hit.value());
    ASSERT_EQ(missLines.size(), hitLines.size());

    int mismatches = 0;
    for (size_t i = 0; i < missLines.size(); ++i) {
        if (missLines[i].find("\"cached\":") != std::string::npos) {
            EXPECT_NE(missLines[i].find("\"cached\":false"),
                      std::string::npos);
            EXPECT_NE(hitLines[i].find("\"cached\":true"),
                      std::string::npos);
        } else if (missLines[i] != hitLines[i] && ++mismatches <= 3) {
            ADD_FAILURE() << "miss: " << missLines[i]
                          << "\nhit:  " << hitLines[i];
        }
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(ServeDaemonTest, TcpLoopbackRoundTrip)
{
    ServeOptions options = baseOptions("tcp");
    options.socketPath.clear();
    options.port = freeLoopbackPort();
    ASSERT_GT(options.port, 0);
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.ready());

    Result<std::string> replies = serveSendLines(
        "", options.port,
        "{\"id\":1,\"op\":\"ping\"}\n"
        "{\"id\":2,\"op\":\"load\",\"preset\":\"ddr3_2g_55\"}\n");
    ASSERT_TRUE(replies.ok()) << replies.error().toString();
    std::vector<std::string> out = lines(replies.value());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_NE(out[0].find("\"pong\":true"), std::string::npos);
    EXPECT_NE(out[1].find("\"ok\":true"), std::string::npos);

    ServeStats stats = daemon.stopAndJoin();
    EXPECT_EQ(stats.requestsAccepted, 2);
    EXPECT_EQ(stats.requestsAccepted,
              stats.responsesWritten + stats.responsesFailed);
}

TEST(ServeDaemonTest, ListenerErrorsAreSocketErrors)
{
    ServeOptions tooLong;
    tooLong.socketPath = "/tmp/" + std::string(200, 'x') + ".sock";
    Result<ServeStats> longPath = runServeServer(tooLong);
    ASSERT_FALSE(longPath.ok());
    EXPECT_EQ(longPath.error().code, "E-SERVE-SOCKET");

    Result<ServeStats> nowhere = runServeServer(ServeOptions{});
    ASSERT_FALSE(nowhere.ok());
    EXPECT_EQ(nowhere.error().code, "E-SERVE-SOCKET");
}

TEST(ServeDaemonTest, LargeBatchDoesNotDeadlockTheClient)
{
    // 1.4 MB of requests: far more than both socket buffers hold, so a
    // client that wrote everything before reading would block against a
    // daemon blocked writing replies.
    DaemonFixture daemon(baseOptions("batch"));
    ASSERT_TRUE(daemon.ready());
    std::string batch =
        "{\"id\":0,\"op\":\"load\",\"preset\":\"ddr3_2g_55\"}\n";
    const int kPerturbs = 20000;
    for (int i = 1; i <= kPerturbs; ++i) {
        batch += strformat("{\"id\":%d,\"op\":\"perturb\",\"param\":"
                           "\"Internal voltage Vint\",\"factor\":%s}\n",
                           i, i % 2 ? "0.9" : "1.1");
    }

    Result<std::string> replies = daemon.send(batch);
    ASSERT_TRUE(replies.ok()) << replies.error().toString();
    std::vector<std::string> out = lines(replies.value());
    ASSERT_EQ(out.size(), static_cast<size_t>(kPerturbs + 1));
    EXPECT_NE(out.back().find("\"id\":20000"), std::string::npos);

    ServeStats stats = daemon.stopAndJoin();
    EXPECT_EQ(stats.requestsAccepted, kPerturbs + 1);
    EXPECT_EQ(stats.requestsAccepted,
              stats.responsesWritten + stats.responsesFailed);
}

TEST(ServeDaemonTest, MalformedAndInvalidRequestsAreQuarantined)
{
    DaemonFixture daemon(baseOptions("quarantine"));
    ASSERT_TRUE(daemon.ready());

    Result<std::string> replies = daemon.send(
        "this is not json\n"
        "{\"id\":2,\"op\":\"evaluate\"}\n"
        "{\"id\":3,\"op\":\"load\",\"preset\":\"nosuch\"}\n"
        "{\"id\":4,\"op\":\"load\",\"text\":\"dram { garbage\"}\n"
        "{\"id\":5,\"op\":\"ping\"}\n");
    ASSERT_TRUE(replies.ok()) << replies.error().toString();
    std::vector<std::string> out = lines(replies.value());
    ASSERT_EQ(out.size(), 5u);
    EXPECT_NE(out[0].find("E-SERVE-REQUEST"), std::string::npos);
    EXPECT_NE(out[1].find("E-SERVE-STATE"), std::string::npos);
    EXPECT_NE(out[2].find("\"ok\":false"), std::string::npos);
    EXPECT_NE(out[3].find("\"ok\":false"), std::string::npos);
    // After four failures the daemon still answers.
    EXPECT_NE(out[4].find("\"pong\":true"), std::string::npos);

    ServeStats stats = daemon.stopAndJoin();
    EXPECT_EQ(stats.requestsAccepted, 5);
    EXPECT_EQ(stats.requestsAccepted,
              stats.responsesWritten + stats.responsesFailed);
}

TEST(ServeDaemonTest, InjectedRequestCrashIsContained)
{
    Result<std::vector<FailpointConfig>> configs =
        parseFailpointSpec("serve.request=crash:1");
    ASSERT_TRUE(configs.ok());
    configureFailpoints(configs.value());

    DaemonFixture daemon(baseOptions("crash"));
    ASSERT_TRUE(daemon.ready());
    Result<std::string> replies = daemon.send(
        "{\"id\":1,\"op\":\"ping\"}\n"
        "{\"id\":2,\"op\":\"ping\"}\n");
    clearFailpoints();
    ASSERT_TRUE(replies.ok()) << replies.error().toString();
    std::vector<std::string> out = lines(replies.value());
    ASSERT_EQ(out.size(), 2u);
    // First request was struck by the injected crash -> structured
    // error; the daemon survives and answers the second normally.
    EXPECT_NE(out[0].find("E-SERVE-INTERNAL"), std::string::npos);
    EXPECT_NE(out[1].find("\"pong\":true"), std::string::npos);

    ServeStats stats = daemon.stopAndJoin();
    EXPECT_EQ(stats.sessionFaults, 0);
    EXPECT_EQ(stats.requestsAccepted,
              stats.responsesWritten + stats.responsesFailed);
}

TEST(ServeDaemonTest, StallHitsDeadline)
{
    Result<std::vector<FailpointConfig>> configs =
        parseFailpointSpec("serve.request=stall:1");
    ASSERT_TRUE(configs.ok());
    configureFailpoints(configs.value());

    ServeOptions options = baseOptions("deadline");
    options.deadlineSeconds = 0.1;
    options.maxDeadlineSeconds = 0.5;
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.ready());
    Result<std::string> replies = daemon.send(
        "{\"id\":1,\"op\":\"ping\"}\n"
        "{\"id\":2,\"op\":\"ping\"}\n");
    clearFailpoints();
    ASSERT_TRUE(replies.ok()) << replies.error().toString();
    std::vector<std::string> out = lines(replies.value());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_NE(out[0].find("E-SERVE-DEADLINE"), std::string::npos);
    EXPECT_NE(out[1].find("\"pong\":true"), std::string::npos);

    ServeStats stats = daemon.stopAndJoin();
    EXPECT_GE(stats.deadlineExceeded, 1);
}

TEST(ServeDaemonTest, InjectedResponseFailureClosesOnlyThatSession)
{
    Result<std::vector<FailpointConfig>> configs =
        parseFailpointSpec("serve.response=error:1");
    ASSERT_TRUE(configs.ok());
    configureFailpoints(configs.value());

    DaemonFixture daemon(baseOptions("response"));
    ASSERT_TRUE(daemon.ready());
    // First connection: its response write is injected to fail, so it
    // gets nothing back (connection closed).
    Result<std::string> dropped =
        daemon.send("{\"id\":1,\"op\":\"ping\"}\n");
    ASSERT_TRUE(dropped.ok());
    EXPECT_TRUE(dropped.value().empty());
    clearFailpoints();
    // Second connection is unaffected.
    Result<std::string> alive =
        daemon.send("{\"id\":2,\"op\":\"ping\"}\n");
    ASSERT_TRUE(alive.ok());
    EXPECT_NE(alive.value().find("\"pong\":true"), std::string::npos);

    ServeStats stats = daemon.stopAndJoin();
    EXPECT_EQ(stats.responsesFailed, 1);
    EXPECT_EQ(stats.requestsAccepted,
              stats.responsesWritten + stats.responsesFailed);
}

TEST(ServeDaemonTest, OverloadShedsWithStructuredError)
{
    // One worker, a queue of one, and slow requests: with three
    // concurrent sessions at least one request must be shed.
    Result<std::vector<FailpointConfig>> configs =
        parseFailpointSpec("serve.request=delay:300");
    ASSERT_TRUE(configs.ok());
    configureFailpoints(configs.value());

    ServeOptions options = baseOptions("overload");
    options.threads = 1;
    options.queueCapacity = 1;
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.ready());

    std::vector<std::thread> clients;
    std::vector<Result<std::string>> replies(
        3, Result<std::string>(std::string()));
    for (int i = 0; i < 3; ++i) {
        clients.emplace_back([&daemon, &replies, i] {
            replies[i] = daemon.send(
                strformat("{\"id\":%d,\"op\":\"ping\"}", i + 1));
        });
        // Stagger so the first occupies the worker, the second the
        // queue slot, and the third is shed.
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    for (std::thread& t : clients)
        t.join();
    clearFailpoints();

    int ok = 0, shed = 0;
    for (const Result<std::string>& reply : replies) {
        ASSERT_TRUE(reply.ok());
        if (reply.value().find("E-SERVE-OVERLOAD") != std::string::npos)
            ++shed;
        else if (reply.value().find("\"pong\":true") != std::string::npos)
            ++ok;
    }
    EXPECT_GE(shed, 1);
    EXPECT_GE(ok, 1);

    ServeStats stats = daemon.stopAndJoin();
    EXPECT_GE(stats.requestsShed, 1);
    EXPECT_EQ(stats.requestsAccepted,
              stats.responsesWritten + stats.responsesFailed);
}

TEST(ServeDaemonTest, IdleSessionIsEvicted)
{
    ServeOptions options = baseOptions("idle");
    options.idleSessionSeconds = 0.3;
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.ready());

    // serveSendLines half-closes after writing (which the daemon reads
    // as EOF, not idleness), so to hold a session idle we open a raw
    // connection and never write: the daemon must evict it instead of
    // leaking the session thread forever.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    // Block on the idle socket until the daemon closes it.
    char byte;
    ssize_t got = ::recv(fd, &byte, 1, 0);
    EXPECT_EQ(got, 0); // orderly close from the daemon side
    ::close(fd);

    ServeStats stats = daemon.stopAndJoin();
    EXPECT_GE(stats.idleEvicted, 1);
}

} // namespace
} // namespace vdram
