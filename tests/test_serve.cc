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
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/description.h"
#include "core/sensitivity.h"
#include "loopback_port.h"
#include "protocol/idd.h"
#include "serve/admission_gate.h"
#include "serve/line_server.h"
#include "serve/model_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "dsl/writer.h"
#include "presets/presets.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/metrics.h"
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

/** Poll @p done every 2 ms for up to 10 s; true once it holds. */
template <typename Done>
bool
eventually(Done done)
{
    for (int i = 0; i < 5000 && !done(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return done();
}

/** A gauge's current value; -1 when it was never set. */
std::int64_t
gaugeValue(const char* name)
{
    MetricsSnapshot metrics = globalMetrics().snapshot();
    auto it = metrics.gauges.find(name);
    return it == metrics.gauges.end() ? -1 : it->second;
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
        return serveSendLines(options_.socketPath, options_.port, lines,
                              kServeSendIdleTimeoutSeconds);
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

TEST(ModelCacheTest, TextLookupHitsOnlyOnByteEquality)
{
    // find() answers only for the exact bytes a load recorded; every
    // other probe misses without counting, so each load still counts
    // one hit or one miss.
    ModelCache cache(2);
    const DramDescription desc = preset2GbDdr3_55();
    const CanonicalForm canonical = canonicalForm(desc);
    EXPECT_EQ(cache.find(canonical.key, canonical.text), nullptr);
    cache.put(canonical.key, desc); // a preset load records no text
    EXPECT_EQ(cache.find(canonical.key, canonical.text), nullptr);
    EXPECT_NE(cache.get(canonical.key, canonical.text), nullptr);
    EXPECT_NE(cache.find(canonical.key, canonical.text), nullptr);

    std::string flipped = canonical.text;
    flipped[flipped.size() / 2] ^= 1;
    EXPECT_EQ(cache.find(canonical.key, flipped), nullptr);
    EXPECT_EQ(cache.find(canonical.key, canonical.text + "\n"), nullptr);
    EXPECT_EQ(cache.find(canonical.key, ""), nullptr);
    EXPECT_EQ(cache.find(canonical.key + 1, canonical.text), nullptr);
    EXPECT_EQ(cache.hits(), 2);
    EXPECT_EQ(cache.misses(), 0);

    // put() records text as well, and an eviction takes it along.
    const CanonicalForm other = canonicalForm(preset128MbSdr170());
    cache.put(other.key, preset128MbSdr170(), other.text);
    EXPECT_NE(cache.find(other.key, other.text), nullptr);
    cache.put(3, desc); // evicts the least recent: the 2Gb entry
    EXPECT_EQ(cache.find(canonical.key, canonical.text), nullptr);
    EXPECT_EQ(cache.hits(), 3);
    EXPECT_EQ(cache.misses(), 0);
    EXPECT_EQ(cache.evictions(), 1);
}

TEST(AdmissionGateTest, WaiterIsAdmittedBeforeALaterArrival)
{
    // One slot, one waiting place. release() hands the slot to the
    // waiter before it wakes, so a request arriving right after must
    // wait its turn instead of taking the slot.
    AdmissionGate gate(1, 1);
    ASSERT_TRUE(gate.admit());
    std::mutex mutex;
    std::vector<int> order;
    auto record = [&](int who) {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(who);
    };
    std::thread waiter([&] {
        EXPECT_TRUE(gate.admit());
        record(1);
        gate.release();
    });
    EXPECT_TRUE(eventually([&gate] { return gate.occupancy().waiting == 1; }));
    EXPECT_FALSE(gate.admit()); // slot and waiting place taken: shed
    gate.release();
    EXPECT_TRUE(gate.admit()); // the later arrival
    record(2);
    gate.release();
    waiter.join();

    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    AdmissionGate::Occupancy idle = gate.occupancy();
    EXPECT_EQ(idle.waiting, 0);
    EXPECT_EQ(idle.running, 0);
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

std::string
textLoad(long long id, const std::string& text)
{
    return strformat("{\"id\":%lld,\"op\":\"load\",\"text\":\"", id) +
           JsonWriter::escape(text) + "\"}\n";
}

std::string
presetLoad(long long id, const std::string& name)
{
    return strformat("{\"id\":%lld,\"op\":\"load\",\"preset\":\"%s\"}\n",
                     id, name.c_str());
}

std::string
presetText(const std::string& name)
{
    for (const NamedPreset& preset : namedPresets()) {
        if (preset.name == name)
            return writeDescription(preset.build());
    }
    ADD_FAILURE() << "no preset " << name;
    return {};
}

/** @p reply with its "cached" flag cleared, for comparing a hit with a
 *  miss. */
std::string
uncached(std::string reply)
{
    const std::string hit = "\"cached\":true";
    std::size_t at = reply.find(hit);
    if (at != std::string::npos)
        reply.replace(at, hit.size(), "\"cached\":false");
    return reply;
}

TEST(ServeDaemonTest, ScriptedLoadsCountOneHitOrMissEach)
{
    // Two slots, three models, loaded as presets, canonical text and a
    // commented spelling. Whichever path answers it, each load counts
    // one hit or one miss in plain LRU order: the text fast path adds
    // no count of its own.
    const std::string a = presetText("ddr3_2g_55");
    const std::string b = presetText("ddr3_1g_55");
    const std::string c = presetText("sdr128m");
    const std::string batch =
        textLoad(1, a) +                     // miss
        textLoad(2, a) +                     // hit (fast path)
        presetLoad(3, "ddr3_2g_55") +        // hit
        textLoad(4, b) +                     // miss
        presetLoad(5, "sdr128m") +           // miss, evicts a
        textLoad(6, a) +                     // miss, evicts b
        textLoad(7, "# respelled\n" + a) +   // hit (parse path)
        textLoad(8, c) +                     // hit, records c's text
        textLoad(9, c) +                     // hit (fast path)
        presetLoad(10, "ddr3_1g_55") +       // miss, evicts a
        "{\"id\":11,\"op\":\"stats\"}\n";
    const char* cachedFlags[] = {"false", "true",  "true",  "false",
                                 "false", "false", "true",  "true",
                                 "true",  "false"};

    ServeOptions options = baseOptions("script");
    options.cacheCapacity = 2;
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.ready());
    Result<std::string> sent = daemon.send(batch);
    ASSERT_TRUE(sent.ok()) << sent.error().toString();
    std::vector<std::string> replies = lines(sent.value());
    ASSERT_EQ(replies.size(), 11u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_NE(replies[i].find(std::string("\"cached\":") +
                                  cachedFlags[i]),
                  std::string::npos)
            << "load " << i + 1 << ": " << replies[i];
    }
    EXPECT_NE(replies[10].find("\"cacheHits\":5"), std::string::npos)
        << replies[10];
    EXPECT_NE(replies[10].find("\"cacheMisses\":5"), std::string::npos);
    EXPECT_NE(replies[10].find("\"cacheEvictions\":3"), std::string::npos);
}

TEST(ServeDaemonTest, WarmTextLoadsAnswerLikeCold)
{
    // Canonical texts of every preset and of seeded perturbed variants:
    // load, perturb, all 11 IDDs, evaluate. The warm daemon has seen
    // every text, so its loads take the fast path; the cold one has one
    // slot and consecutive texts differ, so every load parses. Every
    // reply must match byte for byte but for the "cached" flag.
    std::vector<std::string> texts;
    for (const NamedPreset& preset : namedPresets())
        texts.push_back(writeDescription(preset.build()));
    const std::vector<SweepParam> params =
        sweepParameters(SweepMode::Detailed);
    std::mt19937_64 rng(42);
    for (const NamedPreset& preset : namedPresets()) {
        for (int variants = 0; variants < 2;) {
            DramDescription d = preset.build();
            for (int k = 0; k < 3; ++k) {
                params[rng() % params.size()].apply(
                    d, 0.9 + 0.2 * static_cast<double>(rng() % 1001) /
                                 1000);
            }
            if (!validateDescription(d).ok())
                continue;
            texts.push_back(writeDescription(d));
            ++variants;
        }
    }

    std::string warm;
    std::string batch;
    long long id = 0;
    for (const std::string& text : texts)
        warm += textLoad(++id, text);
    for (std::size_t i = 0; i < texts.size(); ++i) {
        batch += textLoad(++id, texts[i]);
        batch += strformat("{\"id\":%lld,\"op\":\"perturb\",\"param\":"
                           "\"%s\",\"factor\":0.95}\n",
                           ++id, params[i % params.size()].name.c_str());
        for (int m = 0; m < kIddMeasureCount; ++m) {
            batch += strformat(
                "{\"id\":%lld,\"op\":\"idd\",\"measure\":\"%s\"}\n", ++id,
                toLower(iddName(static_cast<IddMeasure>(m))).c_str());
        }
        batch += strformat("{\"id\":%lld,\"op\":\"evaluate\"}\n", ++id);
    }

    ServeOptions coldOptions = baseOptions("cold");
    coldOptions.cacheCapacity = 1;
    ServeOptions warmOptions = baseOptions("warm");
    warmOptions.cacheCapacity = texts.size();
    DaemonFixture coldDaemon(coldOptions);
    DaemonFixture warmDaemon(warmOptions);
    ASSERT_TRUE(coldDaemon.ready());
    ASSERT_TRUE(warmDaemon.ready());
    ASSERT_TRUE(warmDaemon.send(warm).ok());
    Result<std::string> cold = coldDaemon.send(batch);
    Result<std::string> hot = warmDaemon.send(batch);
    ASSERT_TRUE(cold.ok()) << cold.error().toString();
    ASSERT_TRUE(hot.ok()) << hot.error().toString();
    std::vector<std::string> coldLines = lines(cold.value());
    std::vector<std::string> hotLines = lines(hot.value());
    ASSERT_EQ(coldLines.size(), hotLines.size());

    int loads = 0;
    int mismatches = 0;
    for (std::size_t i = 0; i < coldLines.size(); ++i) {
        if (coldLines[i].find("\"cached\":") != std::string::npos) {
            ++loads;
            EXPECT_NE(coldLines[i].find("\"cached\":false"),
                      std::string::npos);
            EXPECT_NE(hotLines[i].find("\"cached\":true"),
                      std::string::npos);
        }
        if (uncached(hotLines[i]) != coldLines[i] && ++mismatches <= 3) {
            ADD_FAILURE() << "cold: " << coldLines[i]
                          << "\nwarm: " << hotLines[i];
        }
    }
    EXPECT_EQ(loads, static_cast<int>(texts.size()));
    EXPECT_EQ(mismatches, 0);
}

TEST(ServeDaemonTest, NonCanonicalTextTakesTheParsePath)
{
    // Other spellings of a device parse to the same canonical text, so
    // they share its cache entry and its hash.
    const std::string text = presetText("ddr3_1g_55");
    std::string spaced = text;
    spaced.replace(spaced.find("Name = "), 7, "Name   =   ");
    const std::string batch = textLoad(1, text) +
                              textLoad(2, "# a comment\n" + text) +
                              textLoad(3, spaced) + textLoad(4, text);

    DaemonFixture daemon(baseOptions("respell"));
    ASSERT_TRUE(daemon.ready());
    Result<std::string> sent = daemon.send(batch);
    ASSERT_TRUE(sent.ok()) << sent.error().toString();
    std::vector<std::string> replies = lines(sent.value());
    ASSERT_EQ(replies.size(), 4u);
    const std::string hash =
        strformat("\"hash\":\"%016llx\"", static_cast<unsigned long long>(
                                              fnv1a64(text)));
    for (std::size_t i = 0; i < replies.size(); ++i) {
        EXPECT_NE(replies[i].find("\"ok\":true"), std::string::npos)
            << replies[i];
        EXPECT_NE(replies[i].find(hash), std::string::npos) << replies[i];
        EXPECT_NE(replies[i].find(i == 0 ? "\"cached\":false"
                                         : "\"cached\":true"),
                  std::string::npos)
            << replies[i];
    }
}

TEST(ServeDaemonTest, ConcurrentTextLoadsAgree)
{
    // Four sessions load three texts in turn through a two-slot cache,
    // so find, get, put and eviction race. Every session sends the same
    // batch and must read the same answers (the "cached" flag aside).
    const std::vector<std::string> texts = {presetText("ddr3_2g_55"),
                                            presetText("ddr3_1g_55"),
                                            presetText("ddr2_1g_75")};
    std::string batch;
    long long id = 0;
    for (int round = 0; round < 6; ++round) {
        for (const std::string& text : texts) {
            batch += textLoad(++id, text);
            batch += strformat("{\"id\":%lld,\"op\":\"evaluate\"}\n", ++id);
        }
    }

    ServeOptions options = baseOptions("concurrent");
    options.threads = 4;
    options.cacheCapacity = 2;
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.ready());
    constexpr int kSessions = 4;
    std::vector<Result<std::string>> replies(kSessions, std::string());
    std::vector<std::thread> sessions;
    for (int s = 0; s < kSessions; ++s) {
        sessions.emplace_back(
            [&, s] { replies[s] = daemon.send(batch); });
    }
    for (std::thread& session : sessions)
        session.join();

    std::vector<std::string> first;
    for (int s = 0; s < kSessions; ++s) {
        ASSERT_TRUE(replies[s].ok()) << replies[s].error().toString();
        std::vector<std::string> got = lines(replies[s].value());
        ASSERT_EQ(got.size(), static_cast<std::size_t>(id));
        for (std::string& reply : got) {
            EXPECT_NE(reply.find("\"ok\":true"), std::string::npos)
                << reply;
            reply = uncached(reply);
        }
        if (s == 0)
            first = got;
        else
            EXPECT_EQ(got, first) << "session " << s;
    }
    ServeStats stats = daemon.stopAndJoin();
    EXPECT_EQ(stats.requestsAccepted,
              stats.responsesWritten + stats.responsesFailed);
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
        "{\"id\":2,\"op\":\"load\",\"preset\":\"ddr3_2g_55\"}\n",
        kServeSendIdleTimeoutSeconds);
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

// ---------------------------------------------------------------------
// Every request executes on its session thread behind one admission
// gate; these pin the deadline, shedding, drain and occupancy rules.
// ---------------------------------------------------------------------

TEST(ServeDaemonTest, StalledPerturbHitsDeadlineAndSessionStaysUsable)
{
    // The 2nd evaluation of the failpoint is the perturb.
    Result<std::vector<FailpointConfig>> configs =
        parseFailpointSpec("serve.request=stall:2");
    ASSERT_TRUE(configs.ok());
    configureFailpoints(configs.value());

    ServeOptions options = baseOptions("stallperturb");
    options.deadlineSeconds = 0.1;
    options.maxDeadlineSeconds = 0.5;
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.ready());
    const std::string load =
        "{\"id\":1,\"op\":\"load\",\"preset\":\"ddr3_2g_55\"}\n";
    const std::string idd =
        "{\"id\":3,\"op\":\"idd\",\"measure\":\"idd4r\"}\n";
    Result<std::string> replies = daemon.send(
        load +
        "{\"id\":2,\"op\":\"perturb\",\"param\":\"Internal voltage "
        "Vint\",\"factor\":1.2}\n" +
        idd);
    clearFailpoints();
    ASSERT_TRUE(replies.ok()) << replies.error().toString();
    std::vector<std::string> out = lines(replies.value());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_NE(out[0].find("\"ok\":true"), std::string::npos) << out[0];
    EXPECT_NE(out[1].find("E-SERVE-DEADLINE"), std::string::npos)
        << out[1];
    // The stalled perturb never applied: the session answers like a
    // fresh one.
    Result<std::string> fresh = daemon.send(load + idd);
    ASSERT_TRUE(fresh.ok()) << fresh.error().toString();
    std::vector<std::string> reference = lines(fresh.value());
    ASSERT_EQ(reference.size(), 2u);
    EXPECT_NE(out[2].find("\"ok\":true"), std::string::npos) << out[2];
    EXPECT_EQ(out[2], reference[1]);

    ServeStats stats = daemon.stopAndJoin();
    EXPECT_EQ(stats.deadlineExceeded, 1);
    EXPECT_EQ(stats.requestsAccepted,
              stats.responsesWritten + stats.responsesFailed);
}

TEST(ServeDaemonTest, GateShedsModelOpsBeyondSlotAndWaitLine)
{
    // One slot, one waiter, slow requests: of three staggered sessions
    // (load then idd each) the third finds both taken.
    Result<std::vector<FailpointConfig>> configs =
        parseFailpointSpec("serve.request=delay:300");
    ASSERT_TRUE(configs.ok());
    configureFailpoints(configs.value());

    ServeOptions options = baseOptions("gateshed");
    options.threads = 1;
    options.queueCapacity = 1;
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.ready());

    std::vector<std::thread> clients;
    std::vector<Result<std::string>> replies(
        3, Result<std::string>(std::string()));
    for (int i = 0; i < 3; ++i) {
        clients.emplace_back([&daemon, &replies, i] {
            replies[i] = daemon.send(strformat(
                "{\"id\":%d,\"op\":\"load\",\"preset\":\"ddr3_1g_55\"}\n"
                "{\"id\":%d,\"op\":\"idd\",\"measure\":\"idd0\"}\n",
                10 * i + 1, 10 * i + 2));
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    for (std::thread& t : clients)
        t.join();
    clearFailpoints();

    int shed = 0, answered = 0;
    for (const Result<std::string>& reply : replies) {
        ASSERT_TRUE(reply.ok()) << reply.error().toString();
        std::vector<std::string> out = lines(reply.value());
        ASSERT_EQ(out.size(), 2u); // one reply per line, shed or not
        for (const std::string& line : out) {
            if (line.find("E-SERVE-OVERLOAD") != std::string::npos)
                ++shed;
            else if (line.find("\"amps\"") != std::string::npos)
                ++answered;
        }
    }
    EXPECT_GE(shed, 1);
    EXPECT_GE(answered, 1);

    ServeStats stats = daemon.stopAndJoin();
    EXPECT_EQ(stats.requestsShed, shed);
    EXPECT_EQ(stats.requestsAccepted, 6);
    EXPECT_EQ(stats.requestsAccepted,
              stats.responsesWritten + stats.responsesFailed);
}

TEST(ServeDaemonTest, StopWhileSessionsStreamDrainsWithInvariant)
{
    ServeOptions options = baseOptions("streamdrain");
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.ready());

    // Four sessions stream small ops one at a time until the draining
    // daemon closes them.
    std::atomic<long long> answered{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&options, &answered] {
            LineClient client;
            if (!client.connect(options.socketPath, 0).ok())
                return;
            const char* ops[] = {
                "{\"id\":%d,\"op\":\"perturb\",\"param\":\"Internal "
                "voltage Vint\",\"factor\":1.1}",
                "{\"id\":%d,\"op\":\"idd\",\"measure\":\"idd0\"}",
                "{\"id\":%d,\"op\":\"evaluate\"}"};
            if (!client.sendLine("{\"id\":0,\"op\":\"load\",\"preset\":"
                                 "\"ddr3_2g_55\"}")
                     .ok() ||
                !client.readLine(10).ok())
                return;
            for (int i = 1; i < 1000000; ++i) {
                if (!client.sendLine(strformat(ops[i % 3], i)).ok() ||
                    !client.readLine(10).ok())
                    return;
                answered.fetch_add(1);
            }
        });
    }
    for (int i = 0; i < 500 && answered.load() < 200; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ServeStats stats = daemon.stopAndJoin();
    for (std::thread& t : clients)
        t.join();

    EXPECT_GE(answered.load(), 200);
    EXPECT_TRUE(stats.drained);
    EXPECT_EQ(stats.connections, 4);
    EXPECT_EQ(stats.requestsShed, 0);
    EXPECT_EQ(stats.requestsAccepted,
              stats.responsesWritten + stats.responsesFailed);
}

TEST(ServeDaemonTest, StatsReportsGateOccupancyWithAWaiter)
{
    // One slot. A ping holds it in a 2 s delay while a ping, a stats
    // request and another ping queue in that order; each step waits on
    // the failpoint count or the gauges, not on a clock. The delay is
    // then disarmed: the queued ping finishes at once, and stats reads
    // the gate holding its own slot with the last ping still waiting.
    Result<std::vector<FailpointConfig>> configs =
        parseFailpointSpec("serve.request=delay:2000");
    ASSERT_TRUE(configs.ok());
    configureFailpoints(configs.value());
    setMetricsEnabled(true);

    ServeOptions options = baseOptions("gatestats");
    options.threads = 1;
    options.queueCapacity = 4;
    DaemonFixture daemon(options);
    ASSERT_TRUE(daemon.ready());

    const char* ops[] = {"ping", "ping", "stats", "ping"};
    std::vector<std::thread> clients;
    std::vector<Result<std::string>> replies(
        4, Result<std::string>(std::string()));
    for (int i = 0; i < 4; ++i) {
        clients.emplace_back([&daemon, &replies, &ops, i] {
            replies[i] = daemon.send(
                strformat("{\"id\":%d,\"op\":\"%s\"}", i + 1, ops[i]));
        });
        if (i == 0) {
            EXPECT_TRUE(eventually([] {
                return failpointFireCount("serve.request") == 1;
            }));
        } else {
            EXPECT_TRUE(eventually([i] {
                return gaugeValue("serve.queue.depth") == i;
            }));
        }
    }
    EXPECT_EQ(gaugeValue("serve.inflight"), 1);
    clearFailpoints();
    for (std::thread& t : clients)
        t.join();
    EXPECT_EQ(gaugeValue("serve.queue.depth"), 0);
    EXPECT_EQ(gaugeValue("serve.inflight"), 0);
    setMetricsEnabled(false);

    for (const Result<std::string>& reply : replies)
        ASSERT_TRUE(reply.ok()) << reply.error().toString();
    const std::string& stats = replies[2].value();
    EXPECT_NE(stats.find("\"queueDepth\":1,"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"inFlight\":1,"), std::string::npos) << stats;

    ServeStats final = daemon.stopAndJoin();
    EXPECT_EQ(final.requestsShed, 0);
    EXPECT_EQ(final.requestsAccepted,
              final.responsesWritten + final.responsesFailed);
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

// ---------------------------------------------------------------------
// serve-send idle deadline
// ---------------------------------------------------------------------

/** A unix-socket peer that accepts connections and never writes: the
 *  client must give up on its own. Holds every accepted connection
 *  open until destruction. */
class SilentListener {
  public:
    explicit SilentListener(const std::string& path) : path_(path)
    {
        std::remove(path_.c_str());
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path_.c_str(),
                     sizeof(addr.sun_path) - 1);
        ok_ = fd_ >= 0 &&
              ::bind(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0 &&
              ::listen(fd_, 4) == 0;
        if (ok_) {
            thread_ = std::thread([this] {
                for (;;) {
                    const int peer = ::accept(fd_, nullptr, nullptr);
                    if (peer < 0)
                        return; // listener shut down
                    peers_.push_back(peer);
                }
            });
        }
    }

    ~SilentListener()
    {
        ::shutdown(fd_, SHUT_RDWR);
        ::close(fd_);
        if (thread_.joinable())
            thread_.join();
        for (int peer : peers_)
            ::close(peer);
        std::remove(path_.c_str());
    }

    bool ok() const { return ok_; }

  private:
    std::string path_;
    int fd_ = -1;
    bool ok_ = false;
    std::thread thread_;
    std::vector<int> peers_;
};

TEST(ServeSendTest, SilentPeerTimesOutWithinTheIdleDeadline)
{
    const std::string path = socketPath("silent");
    SilentListener listener(path);
    ASSERT_TRUE(listener.ok());

    ServeSendOptions options;
    options.socketPath = path;
    options.idleTimeoutSeconds = 0.2;
    const auto start = std::chrono::steady_clock::now();
    Result<std::string> sent =
        serveSendLinesRetry(options, "{\"id\":1,\"op\":\"ping\"}\n");
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ASSERT_FALSE(sent.ok());
    EXPECT_EQ(sent.error().code, "E-SERVE-TIMEOUT");
    EXPECT_GE(seconds, 0.2);
    EXPECT_LT(seconds, 5.0);
}

#if defined(VDRAM_CLI_PATH)
TEST(ServeSendTest, CliExitsSevenOnASilentPeer)
{
    const std::string path = socketPath("silent_cli");
    SilentListener listener(path);
    ASSERT_TRUE(listener.ok());
    const std::string command =
        std::string("echo '{\"id\":1,\"op\":\"ping\"}' | ") +
        VDRAM_CLI_PATH + " serve-send --socket=" + path +
        " --timeout=0.2 2>/dev/null >/dev/null";
    const auto start = std::chrono::steady_clock::now();
    const int status = std::system(command.c_str());
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 7);
    EXPECT_LT(seconds, 5.0);

    // There is no wait-for-ever value: 0 is a usage error.
    const int zero = std::system(
        (std::string(VDRAM_CLI_PATH) + " serve-send --socket=" + path +
         " --timeout=0 </dev/null 2>/dev/null >/dev/null")
            .c_str());
    ASSERT_TRUE(WIFEXITED(zero));
    EXPECT_EQ(WEXITSTATUS(zero), 2);
}
#endif

} // namespace
} // namespace vdram
