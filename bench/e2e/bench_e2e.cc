/**
 * @file
 * End-to-end vDRAM benchmark. One process runs one workload, generates
 * every input from --seed, drives only the public functions of core,
 * power, runner, protocol, dsl, datasheet and serve, checks every
 * output, and prints each metric as one `name value unit` line:
 *
 *   bench_e2e --workload=NAME --seed=S [--seconds=T] [--traced]
 *             [--scale=F] [--workdir=DIR] [--trace-out=FILE]
 *
 * Workloads (README.md says why each was chosen):
 *   mc_campaign   Monte-Carlo vendor-spread campaigns (runner, core, power)
 *   trace_replay  checked serial and 2-job parallel trace replay (protocol)
 *   sched_trace   FR-FCFS scheduling, trace render and check (protocol)
 *   serve_whatif  closed-loop what-if sessions on an in-process daemon
 *   fleet_mixed   closed-loop DSL loads and small ops through a fleet
 *
 * The load is bounded: at most 2 runner jobs (or serve worker threads)
 * plus 2 client connections. The timed phase runs for --seconds.
 * --traced splits it into an untraced half and a traced half; the
 * per-layer metrics come from the traced half (spans recorded by this
 * file only, registry counters read from globalMetrics()) and the rate
 * difference between the halves is tracing_overhead_pct. --scale
 * shrinks every input size (the smoke test runs at 0.01).
 *
 * The last stdout lines are `output_digest`, `attempted`, `failed` and
 * `verdict`; the exit status is 1 when any output check failed.
 */
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/description.h"
#include "core/model.h"
#include "core/montecarlo.h"
#include "core/sensitivity.h"
#include "core/variant_evaluator.h"
#include "datasheet/reference_data.h"
#include "dsl/parser.h"
#include "dsl/writer.h"
#include "power/pattern_power.h"
#include "presets/presets.h"
#include "protocol/address_map.h"
#include "protocol/command_trace.h"
#include "protocol/controller.h"
#include "protocol/trace_stream.h"
#include "protocol/workload.h"
#include "runner/campaign.h"
#include "runner/trace_campaign.h"
#include "serve/fleet.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/supervisor.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/numerics.h"
#include "util/strings.h"
#include "util/trace.h"

#ifndef VDRAM_BENCH_CLI
#error "VDRAM_BENCH_CLI must name the vdram_cli binary the fleet spawns"
#endif

namespace {

using namespace vdram;
using Clock = std::chrono::steady_clock;

/** Runner jobs, serve worker threads and fleet workers: never more. */
constexpr int kJobs = 2;
/** Closed-loop client connections of the serve and fleet workloads. */
constexpr int kClients = 2;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

// Input sizes at --scale=1. A batch round takes 0.5-1.5 s on a 4-core
// machine: on a shared host the speed of a CPU can change by up to 2x
// for seconds at a time, and a round that long averages over several
// such periods instead of falling into one.
constexpr long long kMcSamples = 100'000;     ///< per campaign
constexpr int kMcSeeds = 4;                   ///< campaign seeds cycled
constexpr long long kMcCheckStride = 64;      ///< full-rebuild re-check
constexpr long long kMcPhaseSamples = 20'000; ///< per-phase timing
constexpr long long kTraceAccesses = 500'000;
/** Serial-then-parallel replay pairs per trace_replay round. */
constexpr int kTracePairs = 8;
constexpr long long kSchedAccesses = 1'000'000;
/** Requests per session that output_digest covers (and that every
 *  run sends at least). */
constexpr long long kDigestRequests = 10'000;
constexpr long long kParseLines = 20'000;
constexpr long long kHopRequests = 5'000;
constexpr int kFleetVariants = 12;
/** A fleet session loads a description, then sends this many small
 *  ops. */
constexpr int kFleetOpsPerLoad = 8;
constexpr int kServeResetEvery = 10;
/** One request span in this many is recorded. */
constexpr long long kSpanEvery = 16;
/** p999 is reported only over at least this many samples. */
constexpr size_t kP999MinSamples = 10'000;

const std::vector<IddMeasure> kMeasures = {
    IddMeasure::Idd0,  IddMeasure::Idd1,  IddMeasure::Idd2N,
    IddMeasure::Idd2P, IddMeasure::Idd3N, IddMeasure::Idd3P,
    IddMeasure::Idd4R, IddMeasure::Idd4W, IddMeasure::Idd5,
    IddMeasure::Idd6,  IddMeasure::Idd7,
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    double scale = 1;
    std::string workdir = "bench_e2e.work";
    std::string traceOut;
};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
nanosSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

long long
scaled(long long count, double scale)
{
    return std::max<long long>(1, std::llround(count * scale));
}

/** Nearest-rank percentile, @p q in (0, 1]; 0 for no samples. */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
    rank = std::clamp<size_t>(rank, 1, values.size());
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return values[rank - 1];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/** Rate difference between the untraced and the traced half. */
double
overheadPct(double plainRate, double tracedRate)
{
    return plainRate > 0 ? (plainRate - tracedRate) / plainRate * 100 : 0;
}

/** Exact (hex-float) rendering of the scalar results of a power
 *  evaluation: equal strings mean bit-identical values. */
std::string
exactPower(const PatternPower& p)
{
    return strformat("%a %a %a %a %a %a", p.externalCurrent, p.power,
                     p.loopTime, p.bitsPerLoop, p.energyPerBit,
                     p.busUtilization);
}

/** A number as the serve protocol renders it (util/json: %.9g). */
std::string
jsonNumber(double value)
{
    return std::isfinite(value) ? strformat("%.9g", value) : "null";
}

DramDescription
presetNamed(const std::string& name)
{
    for (const NamedPreset& preset : namedPresets()) {
        if (preset.name == name)
            return preset.build();
    }
    throw std::runtime_error("unknown preset '" + name + "'");
}

template <class T>
T
valueOrThrow(Result<T> result, const char* what)
{
    if (!result.ok()) {
        throw std::runtime_error(std::string(what) + ": " +
                                 result.error().toString());
    }
    return std::move(result).value();
}

/** Peak resident set of this process plus its largest reaped child. */
double
peakRssMiB()
{
    rusage self{};
    rusage children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(self.ru_maxrss + children.ru_maxrss) /
           1024.0;
}

// ---------------------------------------------------------------------
// Tracing: a collector owned by the bench, so only the bench's own calls
// into each layer are spanned (the library's built-in spans report to
// globalTrace(), which stays off).

TraceCollector&
benchSpans()
{
    static TraceCollector collector;
    return collector;
}

class Span {
  public:
    explicit Span(const char* name, bool sampled = true)
        : name_(name), active_(sampled && benchSpans().enabled()),
          start_(active_ ? monotonicNanos() : 0)
    {
    }
    ~Span()
    {
        if (active_)
            benchSpans().record(name_, "bench", start_, monotonicNanos());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    const char* name_;
    bool active_;
    std::uint64_t start_;
};

/** Turn on the registry instrumentation and the bench spans. */
void
startTracing()
{
    setMetricsEnabled(true);
    benchSpans().enable();
}

// ---------------------------------------------------------------------

/** Collects metric lines, check verdicts and the work accounting. */
class Report {
  public:
    void metric(const std::string& name, double value, const char* unit)
    {
        std::printf("%s %.17g %s\n", name.c_str(), value, unit);
    }

    void check(const std::string& what, bool ok)
    {
        std::fprintf(stderr, "check %s: %s\n", what.c_str(),
                     ok ? "ok" : "FAIL");
        passed_ = passed_ && ok;
    }

    void work(long long attempted, long long failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    void digest(const std::string& text) { digest_ = fnv1a64(text); }

    int finish()
    {
        std::printf("output_digest %016llx fnv1a64\n",
                    static_cast<unsigned long long>(digest_));
        std::printf("attempted %lld count\n", attempted_);
        std::printf("failed %lld count\n", failed_);
        std::printf("verdict %s -\n", passed_ ? "PASS" : "FAIL");
        std::fflush(stdout);
        return passed_ ? 0 : 1;
    }

  private:
    bool passed_ = true;
    long long attempted_ = 0;
    long long failed_ = 0;
    std::uint64_t digest_ = 0;
};

/**
 * Build a workload's fixture kSetups times, keeping the last one, and
 * return the median set-up time. The previous fixture is torn down
 * (untimed) before the next is built.
 */
template <class T, class Make>
double
setUp(std::unique_ptr<T>& fixture, Make make)
{
    std::vector<double> seconds;
    for (int i = 0; i < kSetups; ++i) {
        fixture.reset();
        const Clock::time_point start = Clock::now();
        fixture = make();
        seconds.push_back(secondsSince(start));
    }
    return median(seconds);
}

void
reportCommon(Report& report, double setupSeconds)
{
    report.metric("setup_s", setupSeconds, "s");
    report.metric("peak_rss_mb", peakRssMiB(), "MiB");
}

/** Registry activity of the traced half. */
MetricsSnapshot
metricsSince(const MetricsSnapshot& before)
{
    return globalMetrics().snapshot().diffSince(before);
}

std::uint64_t
counterSum(const MetricsSnapshot& metrics, const std::string& prefix,
           const std::string& suffix)
{
    std::uint64_t sum = 0;
    for (const auto& [name, value] : metrics.counters) {
        if (startsWith(name, prefix) && name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += value;
    }
    return sum;
}

/**
 * Runner layer metrics over the traced half: worker busy time against
 * the wall time of the runs that used the pool, per-task overhead, and
 * the median task time (midpoint of its log-2 histogram bucket).
 */
void
reportRunner(Report& report, const MetricsSnapshot& metrics,
             double poolWallSeconds)
{
    const double busy = static_cast<double>(
        counterSum(metrics, "runner.worker.", ".busy_ns"));
    const double capacity = poolWallSeconds * 1e9 * kJobs;
    HistogramSnapshot tasks;
    if (auto it = metrics.histograms.find("runner.task.ns");
        it != metrics.histograms.end())
        tasks = it->second;
    double p50 = 0;
    std::uint64_t seen = 0;
    for (int b = 0; b < kHistogramBuckets && tasks.count > 0; ++b) {
        seen += tasks.buckets[b];
        if (2 * seen >= tasks.count) {
            p50 = b == 0 ? 0
                         : 0.5 * static_cast<double>(
                                     histogramBucketLowerBound(b) +
                                     histogramBucketLowerBound(b + 1));
            break;
        }
    }
    report.metric("runner.busy_frac", capacity > 0 ? busy / capacity : 0,
                  "ratio");
    report.metric("runner.overhead_ns_per_task",
                  tasks.count > 0 ? (capacity - busy) / tasks.count : 0,
                  "ns");
    report.metric("runner.task_ns.p50", p50, "ns");
}

// ---------------------------------------------------------------------
// Batch workloads: rounds back to back until the phase's time is up.

struct Rounds {
    std::vector<double> seconds; ///< per round
    double work = 0;             ///< units completed
};

template <class Round>
Rounds
runRounds(double seconds, int& next, Round&& round)
{
    Rounds out;
    Clock::time_point start = Clock::now();
    do {
        Clock::time_point roundStart = Clock::now();
        out.work += round(next++);
        out.seconds.push_back(secondsSince(roundStart));
    } while (secondsSince(start) < seconds);
    return out;
}

/** Units completed per second of the phase's rounds. */
double
roundRate(const Rounds& rounds)
{
    double seconds = 0;
    for (double s : rounds.seconds)
        seconds += s;
    return seconds > 0 ? rounds.work / seconds : 0;
}

struct TimedRounds {
    Rounds plain;
    Rounds traced;
    MetricsSnapshot tracedStart;
    int rounds = 0; ///< including the warm-up round
};

/** One untimed warm-up round, then the timed phase (two halves when
 *  traced). */
template <class Round>
TimedRounds
timeRounds(const Options& options, Round&& round)
{
    TimedRounds timed;
    int next = 0;
    round(next++);
    timed.plain = runRounds(options.traced ? options.seconds / 2
                                           : options.seconds,
                            next, round);
    if (options.traced) {
        startTracing();
        timed.tracedStart = globalMetrics().snapshot();
        timed.traced = runRounds(options.seconds / 2, next, round);
    }
    timed.rounds = next;
    return timed;
}

/** End-to-end metrics of a batch workload: a round is the unit a user
 *  waits for (a campaign, a replay, a schedule), so its latency
 *  percentiles are over rounds. */
void
reportRounds(Report& report, const Options& options,
             const TimedRounds& timed)
{
    const Rounds& plain = timed.plain;
    report.metric("work_per_s", roundRate(plain), "1/s");
    report.metric("p50_us", percentile(plain.seconds, 0.5) * 1e6, "us");
    report.metric("p99_us", percentile(plain.seconds, 0.99) * 1e6, "us");
    report.metric("e2e.latency_samples",
                  static_cast<double>(plain.seconds.size()), "count");
    if (options.traced) {
        report.metric("tracing_overhead_pct",
                      overheadPct(roundRate(plain),
                                  roundRate(timed.traced)),
                      "%");
    }
}

// ---------------------------------------------------------------------
// mc_campaign

/** Datasheet error of one band row (Figs. 8/9). */
struct BandError {
    std::string name;
    double errPct = 0;
};

/**
 * The model's datasheet errors when the benchmark was defined, in
 * percent; they do not depend on the seed. A change may lower them, but
 * one that raises any beyond rounding fails the run, so a faster model
 * that drifts from the silicon bands is not a pass.
 */
const BandError kBandErrReference[] = {
    {"datasheet.idd0.ddr2_1g_75.err_pct", 14.292007764015628},
    {"datasheet.idd4r.ddr2_1g_75.err_pct", 10.040358483312836},
    {"datasheet.idd4w.ddr2_1g_75.err_pct", 12.073805011645504},
    {"datasheet.idd0.ddr3_1g_55.err_pct", 15.369659083673303},
    {"datasheet.idd4r.ddr3_1g_55.err_pct", 12.438953849931043},
    {"datasheet.idd4w.ddr3_1g_55.err_pct", 8.8466801258415426},
};
constexpr double kBandErrReferenceMean = 12.176910719736645;
/** Rounding an error may differ by (percentage points). */
constexpr double kBandErrSlack = 1e-9;

/** Whether @p errors covers the reference rows, none of them worse. */
bool
noWorseThanReference(const std::vector<BandError>& errors, double mean)
{
    if (errors.size() != std::size(kBandErrReference))
        return false;
    for (size_t i = 0; i < errors.size(); ++i) {
        const BandError& ref = kBandErrReference[i];
        if (errors[i].name != ref.name ||
            !(errors[i].errPct <= ref.errPct + kBandErrSlack))
            return false;
    }
    return mean <= kBandErrReferenceMean + kBandErrSlack;
}

/**
 * |model - band midpoint| / midpoint for every Fig. 8/9 row at the own
 * data rate and I/O width of the two verification presets.
 */
std::vector<BandError>
datasheetErrors()
{
    struct Part {
        const char* preset;
        const std::vector<DatasheetPoint>& bands;
    };
    const Part parts[] = {{"ddr2_1g_75", ddr2_1gb_datasheet()},
                          {"ddr3_1g_55", ddr3_1gb_datasheet()}};
    std::vector<BandError> errors;
    for (const Part& part : parts) {
        DramPowerModel model = valueOrThrow(
            DramPowerModel::create(presetNamed(part.preset)), part.preset);
        const Specification& spec = model.description().spec;
        const double rate = std::round(spec.dataRate / 1e6);
        for (IddMeasure measure : kMeasures) {
            Result<DatasheetPoint> band = lookupDatasheetPoint(
                part.bands, measure, rate, spec.ioWidth);
            if (!band.ok())
                continue; // a row the set does not carry
            const double mid = valueOrThrow(
                bandTargetMa(band.value(), 0.5), "datasheet band");
            const double modelMa = model.idd(measure) * 1e3;
            errors.push_back(
                {strformat("datasheet.%s.%s.err_pct",
                           toLower(iddName(measure)).c_str(), part.preset),
                 std::fabs(modelMa - mid) / mid * 100});
        }
    }
    return errors;
}

struct McFixture {
    DramDescription nominal;
    std::unique_ptr<DramPowerModel> model;
    std::vector<std::uint64_t> seeds;
    int samples = 0;
    std::vector<BandError> bands;
};

/** What one campaign seed produced (filled by its first round). */
struct McOutcome {
    bool ran = false;
    std::string digest;
    std::vector<IddDistribution> distributions;
};

std::string
distributionDigest(const MonteCarloCampaign& campaign)
{
    std::string text = strformat("ok=%lld quarantined=%lld\n",
                                 campaign.report.ok,
                                 campaign.report.quarantined);
    for (const IddDistribution& d : campaign.distributions) {
        text += strformat("%s %.17g %.17g %.17g %.17g %.17g %.17g\n",
                          iddName(d.measure).c_str(), d.nominal, d.mean,
                          d.minimum, d.maximum, d.p05, d.p95);
    }
    return text;
}

/**
 * Time the phases of a Monte-Carlo sample on a scratch evaluator: the
 * draw alone, the whole applyPerturbation() (restore, draw, revalidate
 * and the stage rebuild it runs), the rebuild's share from the model's
 * stage histograms, and the batched IDD evaluation.
 */
void
reportMcPhases(Report& report, const McFixture& f, long long samples)
{
    Span span("core.mc.phases");
    const MetricsSnapshot before = globalMetrics().snapshot();
    const VariationModel variation;
    VariantEvaluator evaluator(*f.model);
    DramDescription scratch;
    std::vector<double> draw, apply, batch;
    std::vector<double> out(kMeasures.size());
    for (long long i = 0; i < samples; ++i) {
        const std::uint64_t seed = monteCarloSampleSeed(f.seeds[0], i);
        scratch = f.nominal;
        Clock::time_point start = Clock::now();
        applyVariantPerturbation(scratch, variation, seed);
        draw.push_back(nanosSince(start));

        start = Clock::now();
        Status applied = evaluator.applyPerturbation(
            [&](DramDescription& d) {
                applyVariantPerturbation(d, variation, seed);
            },
            kMonteCarloDirtyMask);
        apply.push_back(nanosSince(start));
        if (!applied.ok())
            continue; // quarantined draw: nothing to evaluate

        start = Clock::now();
        evaluator.iddBatch(kMeasures.data(), kMeasures.size(), out.data());
        batch.push_back(nanosSince(start));
    }
    double rebuildNs = 0;
    for (const auto& [name, histogram] : metricsSince(before).histograms) {
        if (startsWith(name, "model.stage."))
            rebuildNs += static_cast<double>(histogram.sum);
    }
    report.metric("core.mc.draw_ns", median(draw), "ns");
    report.metric("core.variant.apply_ns", median(apply), "ns");
    report.metric("core.variant.rebuild_ns", rebuildNs / samples, "ns");
    report.metric("power.idd_batch_ns", median(batch), "ns");

    // A campaign task hands its sample to the runner as a %.17g text
    // payload and the aggregation parses it back.
    std::vector<double> codec;
    for (int i = 0; i < 1000; ++i) {
        const Clock::time_point start = Clock::now();
        const std::string payload = encodeDoublePayload(out);
        const bool decoded = decodeDoublePayload(payload).ok();
        codec.push_back(nanosSince(start));
        if (!decoded)
            throw std::runtime_error("payload does not round-trip");
    }
    report.metric("runner.payload_codec_ns", median(codec), "ns");
}

void
runMcCampaign(const Options& options, Report& report)
{
    std::unique_ptr<McFixture> fixture;
    const double setupSeconds = setUp(fixture, [&] {
        auto f = std::make_unique<McFixture>();
        f->nominal = presetNamed("ddr3_1g_55");
        f->model = std::make_unique<DramPowerModel>(
            valueOrThrow(DramPowerModel::create(f->nominal), "nominal"));
        for (int k = 0; k < kMcSeeds; ++k)
            f->seeds.push_back(deriveStreamSeed(options.seed, k));
        f->samples = static_cast<int>(scaled(kMcSamples, options.scale));
        f->bands = datasheetErrors();
        return f;
    });
    McFixture& f = *fixture;

    RunnerOptions runner;
    runner.jobs = kJobs;
    std::vector<McOutcome> outcomes(kMcSeeds);
    bool repeatable = true;
    long long total = 0, quarantined = 0, failed = 0;
    double tracedPoolWall = 0;
    auto round = [&](int index) -> double {
        const int k = index % kMcSeeds;
        Span span("runner.mc_campaign");
        MonteCarloCampaign campaign = valueOrThrow(
            runMonteCarloCampaign(f.nominal, kMeasures, f.samples,
                                  VariationModel{}, f.seeds[k], runner),
            "campaign");
        const RunReport& r = campaign.report;
        total += r.total;
        quarantined += r.quarantined;
        failed += r.failed + r.timedOut + r.notRun;
        if (metricsEnabled())
            tracedPoolWall += r.wallSeconds;
        const std::string digest = distributionDigest(campaign);
        McOutcome& outcome = outcomes[k];
        if (!outcome.ran) {
            outcome = {true, digest, campaign.distributions};
        } else if (outcome.digest != digest) {
            repeatable = false;
        }
        return static_cast<double>(f.samples);
    };
    TimedRounds timed = timeRounds(options, round);
    report.work(total, failed);
    const MetricsSnapshot tracedMetrics = metricsSince(timed.tracedStart);
    const double tracedPoolSeconds = tracedPoolWall;
    // A short run may not reach every seed; the digest covers all four.
    for (int k = 0; k < kMcSeeds; ++k) {
        if (!outcomes[k].ran)
            round(k);
    }
    report.check("campaign rounds of one seed are identical", repeatable);
    report.check("no campaign task failed, timed out or was left unrun",
                 failed == 0);

    // Every 64th sample: the fast path the campaign runs must match the
    // full rebuild byte for byte, and lie inside the campaign's range.
    const VariationModel variation;
    VariantEvaluator evaluator(*f.model);
    bool identical = true, inRange = true;
    std::string digestText;
    for (int k = 0; k < kMcSeeds; ++k) {
        const std::vector<IddDistribution>& d = outcomes[k].distributions;
        digestText += outcomes[k].digest;
        inRange = inRange && d.size() == kMeasures.size();
        for (long long i = 0; i < f.samples && inRange;
             i += kMcCheckStride) {
            const std::uint64_t seed = monteCarloSampleSeed(f.seeds[k], i);
            Result<std::vector<double>> fast = evaluateMonteCarloSampleFast(
                evaluator, variation, kMeasures, seed);
            Result<std::vector<double>> full = evaluateMonteCarloSample(
                f.nominal, variation, kMeasures, seed);
            if (fast.ok() != full.ok()) {
                identical = false;
                continue;
            }
            if (!fast.ok()) {
                identical = identical &&
                            fast.error().code == full.error().code;
                continue;
            }
            identical = identical &&
                        std::memcmp(fast.value().data(),
                                    full.value().data(),
                                    kMeasures.size() * sizeof(double)) == 0;
            for (size_t m = 0; m < kMeasures.size(); ++m) {
                const double v = fast.value()[m];
                inRange = inRange && d[m].measure == kMeasures[m] &&
                          v >= d[m].minimum && v <= d[m].maximum;
            }
        }
    }
    report.check("sampled fast-path results equal the full rebuild",
                 identical);
    report.check("sampled results lie inside the campaign range", inRange);
    report.digest(digestText);

    reportRounds(report, options, timed);
    double errSum = 0;
    bool finite = !f.bands.empty();
    for (const BandError& band : f.bands) {
        report.metric(band.name, band.errPct, "%");
        errSum += band.errPct;
        finite = finite && std::isfinite(band.errPct);
    }
    const double errMean = errSum / std::max<size_t>(1, f.bands.size());
    report.check("datasheet band errors are finite", finite);
    report.check("datasheet band errors are no worse than the reference",
                 noWorseThanReference(f.bands, errMean));
    report.metric("datasheet.idd_band_err_pct", errMean, "%");
    report.metric("core.mc.quarantine_frac",
                  total > 0 ? static_cast<double>(quarantined) / total : 0,
                  "ratio");
    if (options.traced) {
        const double tasks = timed.traced.work;
        report.metric("core.stage_rebuilds_per_sample",
                      tasks > 0 ? counterSum(tracedMetrics, "model.stage.",
                                             ".rebuilds") /
                                      tasks
                                : 0,
                      "count");
        reportRunner(report, tracedMetrics, tracedPoolSeconds);
        reportMcPhases(report, f, scaled(kMcPhaseSamples, options.scale));
    }
    reportCommon(report, setupSeconds);
}

// ---------------------------------------------------------------------
// trace_replay and sched_trace

SchedulerOptions
frFcfs()
{
    SchedulerOptions options;
    options.pagePolicy = PagePolicy::OpenPage;
    options.policy = SchedPolicy::FrFcfs;
    options.windowSize = 16;
    return options;
}

std::vector<MemoryAccess>
makeAccesses(const DramDescription& desc, WorkloadKind kind,
             long long count, std::uint64_t seed)
{
    AddressMap map(desc.spec, MapScheme::XorBankRowCol);
    WorkloadParams params;
    params.count = count;
    params.seed = static_cast<unsigned>(seed);
    params.writeFraction = 0.3;
    return makeWorkload(desc.spec, map, kind, params);
}

TraceStreamOptions
streamOptions(const DramDescription& desc, bool check)
{
    TraceStreamOptions options;
    options.check = check;
    options.banks = desc.spec.banks();
    options.timing = desc.timing;
    return options;
}

PatternPower
tracePower(const TraceStreamResult& trace, const DramPowerModel& model)
{
    const DramDescription& d = model.description();
    return computePatternPowerFromStats(trace.stats, model.operations(),
                                        d.elec, d.timing.tCkSeconds,
                                        d.spec);
}

std::string
traceDigest(const TraceStreamResult& trace, const PatternPower& power)
{
    return strformat("commands=%lld cycles=%lld %s\n", trace.commands,
                     trace.cycles, exactPower(power).c_str());
}

/** A scheduled access stream rendered as a legal command trace. */
struct Rendered {
    ScheduleStats stats;
    std::string text;
    double scheduleSeconds = 0;
    double renderSeconds = 0;
};

Rendered
scheduleAndRender(const DramDescription& desc,
                  const std::vector<MemoryAccess>& accesses)
{
    Rendered out;
    Clock::time_point start = Clock::now();
    Pattern pattern;
    {
        Span span("protocol.sched.schedule");
        CommandScheduler scheduler(desc.spec, desc.timing, frFcfs());
        ScheduledStream stream =
            valueOrThrow(scheduler.schedule(accesses), "schedule");
        out.stats = stream.stats;
        pattern = std::move(stream.pattern);
    }
    out.scheduleSeconds = secondsSince(start);
    start = Clock::now();
    {
        Span span("protocol.trace.render");
        out.text = writeCommandTrace(pattern);
    }
    out.renderSeconds = secondsSince(start);
    return out;
}

bool
scheduleAccounts(const ScheduleStats& stats, long long accesses)
{
    return stats.accesses == accesses &&
           stats.rowHits + stats.rowMisses + stats.rowConflicts ==
               accesses;
}

void
reportSchedule(Report& report, const ScheduleStats& stats,
               double genSeconds, double scheduleSeconds)
{
    const double n = static_cast<double>(stats.accesses);
    report.metric("protocol.workload.gen_ns_per_access",
                  genSeconds * 1e9 / n, "ns");
    report.metric("protocol.sched.ns_per_access",
                  scheduleSeconds * 1e9 / n, "ns");
    report.metric("protocol.sched.cycles",
                  static_cast<double>(stats.cycles), "count");
    report.metric("protocol.sched.row_hit_rate", stats.rowHitRate(),
                  "ratio");
    report.metric("protocol.sched.reordered_frac", stats.reordered / n,
                  "ratio");
}

/**
 * Parse cost per command from three `check=false` passes, and the
 * checker's share: the traced `check=true` passes minus that.
 */
template <class ParseOnly>
void
reportParseAndCheck(Report& report, const std::vector<double>& checkSeconds,
                    ParseOnly parseOnly)
{
    std::vector<double> parseSeconds;
    long long commands = 0;
    for (int pass = 0; pass < 3; ++pass) {
        Span span("protocol.trace.parse_only");
        const Clock::time_point start = Clock::now();
        commands = valueOrThrow(parseOnly(), "parse-only replay").commands;
        parseSeconds.push_back(secondsSince(start));
    }
    const double parse = median(parseSeconds);
    report.metric("protocol.trace.parse_ns_per_cmd", parse * 1e9 / commands,
                  "ns");
    report.metric("protocol.trace.check_ns_per_cmd",
                  (median(checkSeconds) - parse) * 1e9 / commands, "ns");
}

struct TraceFixture {
    DramDescription desc;
    std::unique_ptr<DramPowerModel> model;
    std::string path;
    long long accesses = 0;
    ScheduleStats stats;
    double genSeconds = 0;
    double scheduleSeconds = 0;
    double renderSeconds = 0;
};

std::unique_ptr<TraceFixture>
makeTraceFixture(const Options& options)
{
    auto f = std::make_unique<TraceFixture>();
    f->desc = presetNamed("ddr3_1g_55");
    f->model = std::make_unique<DramPowerModel>(
        valueOrThrow(DramPowerModel::create(f->desc), "model"));
    Clock::time_point start = Clock::now();
    std::vector<MemoryAccess> accesses =
        makeAccesses(f->desc, WorkloadKind::Zipf,
                     scaled(kTraceAccesses, options.scale),
                     deriveStreamSeed(options.seed, 100));
    f->genSeconds = secondsSince(start);
    f->accesses = static_cast<long long>(accesses.size());
    Rendered rendered = scheduleAndRender(f->desc, accesses);
    f->stats = rendered.stats;
    f->scheduleSeconds = rendered.scheduleSeconds;
    f->renderSeconds = rendered.renderSeconds;
    f->path = options.workdir + "/trace_replay.cmdtrace";
    {
        std::ofstream out(f->path, std::ios::trunc | std::ios::binary);
        out << rendered.text;
        if (!out)
            throw std::runtime_error("cannot write " + f->path);
    }
    // Warm the page cache: every timed pass reads a cached file.
    std::ifstream in(f->path, std::ios::binary);
    std::string warm((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (warm.size() != rendered.text.size())
        throw std::runtime_error("short read of " + f->path);
    return f;
}

void
runTraceReplay(const Options& options, Report& report)
{
    std::unique_ptr<TraceFixture> fixture;
    const double setupSeconds =
        setUp(fixture, [&] { return makeTraceFixture(options); });
    TraceFixture& f = *fixture;

    std::string expected;
    bool identical = true;
    long long commands = 0, violations = 0, slices = 0;
    std::vector<double> checkSeconds, parallelSeconds; // traced half
    auto pair = [&] {
        Clock::time_point start = Clock::now();
        TraceStreamResult serial;
        {
            Span span("protocol.trace.serial_check");
            serial = valueOrThrow(
                evaluateTraceStreamFile(f.path, streamOptions(f.desc, true)),
                "serial replay");
        }
        const std::string serialDigest =
            traceDigest(serial, tracePower(serial, *f.model));
        if (metricsEnabled())
            checkSeconds.push_back(secondsSince(start));

        start = Clock::now();
        TraceCampaignOptions parallelOptions;
        parallelOptions.jobs = kJobs;
        TraceCampaignResult parallel;
        {
            Span span("runner.trace_parallel");
            parallel = valueOrThrow(
                evaluateTraceFileParallel(f.path, parallelOptions),
                "parallel replay");
        }
        if (metricsEnabled())
            parallelSeconds.push_back(secondsSince(start));
        const std::string parallelDigest =
            traceDigest(parallel.trace, tracePower(parallel.trace, *f.model));

        commands = serial.commands;
        violations += serial.violationCount;
        slices = parallel.slices;
        if (expected.empty())
            expected = serialDigest;
        identical = identical && serialDigest == expected &&
                    parallelDigest == expected;
    };
    const int pairs = static_cast<int>(scaled(kTracePairs, options.scale));
    auto round = [&](int) -> double {
        for (int p = 0; p < pairs; ++p)
            pair();
        return 2.0 * pairs * static_cast<double>(commands);
    };
    TimedRounds timed = timeRounds(options, round);
    report.work(timed.rounds * 2LL * pairs * commands, 0);
    report.check("serial and parallel replays are bit-identical in every "
                 "round",
                 identical);
    report.check("the scheduled trace has no protocol violation",
                 violations == 0);
    report.check("scheduled accesses are all hits, misses or conflicts",
                 scheduleAccounts(f.stats, f.accesses));
    report.digest(expected);

    reportRounds(report, options, timed);
    reportSchedule(report, f.stats, f.genSeconds, f.scheduleSeconds);
    report.metric("protocol.trace.render_ns_per_cmd",
                  f.renderSeconds * 1e9 / commands, "ns");
    if (options.traced) {
        report.metric("runner.trace_campaign.slices",
                      static_cast<double>(slices), "count");
        double parallelWall = 0;
        for (double seconds : parallelSeconds)
            parallelWall += seconds;
        reportRunner(report, metricsSince(timed.tracedStart), parallelWall);
        report.metric("protocol.trace.serial_cmds_per_s",
                      commands / median(checkSeconds), "1/s");
        report.metric("runner.trace_par_cmds_per_s",
                      commands / median(parallelSeconds), "1/s");
        reportParseAndCheck(report, checkSeconds, [&] {
            return evaluateTraceStreamFile(f.path,
                                           streamOptions(f.desc, false));
        });
    }
    reportCommon(report, setupSeconds);
}

struct SchedFixture {
    DramDescription desc;
    std::unique_ptr<DramPowerModel> model;
    std::vector<MemoryAccess> accesses;
    double genSeconds = 0;
};

void
runSchedTrace(const Options& options, Report& report)
{
    std::unique_ptr<SchedFixture> fixture;
    const double setupSeconds = setUp(fixture, [&] {
        auto f = std::make_unique<SchedFixture>();
        f->desc = presetNamed("ddr3_1g_55");
        f->model = std::make_unique<DramPowerModel>(
            valueOrThrow(DramPowerModel::create(f->desc), "model"));
        Clock::time_point start = Clock::now();
        f->accesses = makeAccesses(f->desc, WorkloadKind::Mixed,
                                   scaled(kSchedAccesses, options.scale),
                                   deriveStreamSeed(options.seed, 200));
        f->genSeconds = secondsSince(start);
        return f;
    });
    SchedFixture& f = *fixture;
    const long long n = static_cast<long long>(f.accesses.size());

    std::string expected;
    bool identical = true, accounted = true;
    long long violations = 0;
    ScheduleStats stats;
    std::vector<double> scheduleSeconds, renderSeconds, checkSeconds;
    std::string lastText;
    auto round = [&](int) -> double {
        Rendered rendered = scheduleAndRender(f.desc, f.accesses);
        Clock::time_point start = Clock::now();
        TraceStreamResult checked;
        {
            Span span("protocol.trace.check");
            checked = valueOrThrow(
                evaluateTraceBuffer(rendered.text.data(),
                                    rendered.text.size(),
                                    streamOptions(f.desc, true)),
                "checked trace");
        }
        if (metricsEnabled()) {
            checkSeconds.push_back(secondsSince(start));
            scheduleSeconds.push_back(rendered.scheduleSeconds);
            renderSeconds.push_back(rendered.renderSeconds /
                                    checked.commands);
        }
        violations += checked.violationCount;
        accounted = accounted && scheduleAccounts(rendered.stats, n);
        const ScheduleStats& s = rendered.stats;
        const std::string digest =
            strformat("hits=%lld misses=%lld conflicts=%lld "
                      "reordered=%lld cycles=%lld\n",
                      s.rowHits, s.rowMisses, s.rowConflicts, s.reordered,
                      s.cycles) +
            traceDigest(checked, tracePower(checked, *f.model));
        if (expected.empty())
            expected = digest;
        identical = identical && digest == expected;
        stats = s;
        lastText = std::move(rendered.text);
        return static_cast<double>(n);
    };
    TimedRounds timed = timeRounds(options, round);
    report.work(timed.rounds * n, 0);
    report.check("every round schedules identically", identical);
    report.check("the scheduled trace has no protocol violation",
                 violations == 0);
    report.check("hits + misses + conflicts equal the access count",
                 accounted);
    report.digest(expected);

    reportRounds(report, options, timed);
    if (options.traced) {
        reportSchedule(report, stats, f.genSeconds, median(scheduleSeconds));
        report.metric("protocol.trace.render_ns_per_cmd",
                      median(renderSeconds) * 1e9, "ns");
        reportParseAndCheck(report, checkSeconds, [&] {
            return evaluateTraceBuffer(lastText.data(), lastText.size(),
                                       streamOptions(f.desc, false));
        });
    }
    reportCommon(report, setupSeconds);
}

// ---------------------------------------------------------------------
// serve_whatif and fleet_mixed: closed-loop sessions over AF_UNIX.

enum class Op : std::uint8_t { Load, Perturb, Idd, Evaluate, Reset };
constexpr const char* kOpNames[] = {"load", "perturb", "idd", "evaluate",
                                    "reset"};
constexpr std::uint8_t kCachedBit = 0x80;

struct Request {
    Op op = Op::Load;
    int variant = 0; ///< Load: index into the session's load texts
    int perturb = 0; ///< Perturb: index into the accepted perturbations
    int measure = 0; ///< Idd: index into kMeasures
};

/** Request mix of a session. Request 0 is always a load. */
struct Mix {
    int variants = 1;   ///< load texts drawn from
    int loadEvery = 0;  ///< reload period (0: never again)
    int resetEvery = 0; ///< reset period (0: never)
};

/** A session's deterministic request sequence; the replay re-creates
 *  it from the same seed. */
class RequestStream {
  public:
    RequestStream(std::uint64_t seed, Mix mix, int perturbs)
        : rng_(seed), mix_(mix), perturbs_(perturbs)
    {
    }

    Request next()
    {
        const long long i = index_++;
        Request r;
        if (i == 0 || (mix_.loadEvery > 0 && i % mix_.loadEvery == 0)) {
            r.op = Op::Load;
            r.variant = static_cast<int>(rng_() % mix_.variants);
        } else if (mix_.resetEvery > 0 && i % mix_.resetEvery == 0) {
            r.op = Op::Reset;
        } else {
            switch (rng_() % 3) {
            case 0:
                r.op = Op::Perturb;
                r.perturb = static_cast<int>(rng_() % perturbs_);
                break;
            case 1:
                r.op = Op::Idd;
                r.measure = static_cast<int>(rng_() % kMeasures.size());
                break;
            default: r.op = Op::Evaluate; break;
            }
        }
        return r;
    }

  private:
    std::mt19937_64 rng_;
    Mix mix_;
    int perturbs_;
    long long index_ = 0;
};

/**
 * What sessions may send: the load texts (as JSON members) and the
 * value-parameter perturbations (the delta fast path `perturb` exists
 * for) that every loaded description accepts, so no request of the mix
 * fails validation. Structural parameters are left out: after one, a
 * session loaded from the model cache answers differently from one
 * that missed it (README.md, findings), which would make the replies
 * depend on timing.
 */
struct Vocabulary {
    std::vector<std::string> loadMembers;
    std::vector<SweepParam> params;
    struct Perturbation {
        size_t param;
        double factor;
        std::string members;
    };
    std::vector<Perturbation> perturbs;
    std::vector<std::string> iddMembers;
};

Vocabulary
makeVocabulary(std::vector<std::string> loadMembers,
               const std::vector<DramPowerModel>& models)
{
    Vocabulary v;
    v.loadMembers = std::move(loadMembers);
    v.params = sweepParameters(SweepMode::Detailed);
    for (size_t p = 0; p < v.params.size(); ++p) {
        if (v.params[p].dirty & kDirtyStructure)
            continue;
        for (double factor : {0.9, 0.95, 1.05, 1.1}) {
            bool accepted = true;
            for (const DramPowerModel& model : models) {
                DramDescription d = model.description();
                v.params[p].apply(d, factor);
                accepted = accepted && validateDescription(d).ok();
            }
            if (accepted) {
                v.perturbs.push_back(
                    {p, factor,
                     strformat("\"op\":\"perturb\",\"param\":\"%s\","
                               "\"factor\":%.17g",
                               JsonWriter::escape(v.params[p].name).c_str(),
                               factor)});
            }
        }
    }
    if (v.perturbs.empty())
        throw std::runtime_error("no perturbation accepted");
    for (IddMeasure measure : kMeasures) {
        v.iddMembers.push_back(
            strformat("\"op\":\"idd\",\"measure\":\"%s\"",
                      toLower(iddName(measure)).c_str()));
    }
    return v;
}

void
renderRequest(const Vocabulary& v, const Request& r, long long id,
              std::string& line)
{
    line = "{\"id\":";
    line += std::to_string(id);
    line += ',';
    switch (r.op) {
    case Op::Load: line += v.loadMembers[r.variant]; break;
    case Op::Perturb: line += v.perturbs[r.perturb].members; break;
    case Op::Idd: line += v.iddMembers[r.measure]; break;
    case Op::Evaluate: line += "\"op\":\"evaluate\""; break;
    case Op::Reset: line += "\"op\":\"reset\""; break;
    }
    line += "}\n";
}

/** The raw token of a top-level `"key":value` member of a reply. */
std::string
replyField(const std::string& reply, const char* key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const size_t at = reply.find(needle);
    if (at == std::string::npos)
        return "<missing>";
    const size_t begin = at + needle.size();
    return reply.substr(begin, reply.find_first_of(",}", begin) - begin);
}

/** The numbers of an idd or evaluate reply the replay must reproduce. */
std::string
checkedNumbers(Op op, const std::string& reply)
{
    if (op == Op::Idd)
        return replyField(reply, "amps");
    return replyField(reply, "powerWatts") + "," +
           replyField(reply, "currentAmps") + "," +
           replyField(reply, "energyPerBit") + "," +
           replyField(reply, "busUtilization") + "," +
           replyField(reply, "loopSeconds");
}

/** One closed-loop client connection: one request outstanding at a
 *  time, each reply read before the next request is sent. */
class LineClient {
  public:
    explicit LineClient(const std::string& socketPath)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socketPath.size() >= sizeof(addr.sun_path))
            throw std::runtime_error("socket path too long: " + socketPath);
        std::memcpy(addr.sun_path, socketPath.c_str(),
                    socketPath.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket: " +
                                     std::string(std::strerror(errno)));
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
            const std::string why = std::strerror(errno);
            ::close(fd_);
            throw std::runtime_error("connect " + socketPath + ": " + why);
        }
        // A wedged server fails the run instead of hanging it.
        timeval timeout{60, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                     sizeof(timeout));
    }
    ~LineClient() { ::close(fd_); }
    LineClient(const LineClient&) = delete;
    LineClient& operator=(const LineClient&) = delete;

    /** Send @p line (newline-terminated) and read one reply line into
     *  @p reply; false on an I/O error, EOF or timeout. */
    bool roundTrip(const std::string& line, std::string& reply)
    {
        for (size_t sent = 0; sent < line.size();) {
            const ssize_t n = ::send(fd_, line.data() + sent,
                                     line.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            sent += static_cast<size_t>(n);
        }
        for (;;) {
            const size_t newline = pending_.find('\n');
            if (newline != std::string::npos) {
                reply.assign(pending_, 0, newline);
                pending_.erase(0, newline + 1);
                return true;
            }
            char buffer[16384];
            const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            pending_.append(buffer, static_cast<size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string pending_;
};

/** Client side of one session: the requests sent and what came back. */
struct Session {
    Session(std::uint64_t sessionSeed, Mix mix, const Vocabulary& v,
            const std::string& socketPath)
        : seed(sessionSeed),
          stream(sessionSeed, mix, static_cast<int>(v.perturbs.size())),
          client(std::make_unique<LineClient>(socketPath))
    {
    }

    std::uint64_t seed;
    RequestStream stream;
    std::unique_ptr<LineClient> client;
    long long sent = 0;
    std::vector<float> latencyUs;
    std::vector<std::uint8_t> ops; ///< Op, | kCachedBit for cached loads
    /** fnv1a64 of the checked numbers of an ok idd/evaluate reply. */
    std::vector<std::uint64_t> checked;
    long long failed = 0;
    bool ioError = false;
    std::string firstFailure;
    std::string digestText;
};

/** Drive one session closed-loop until @p seconds have passed and at
 *  least @p minRequests were sent in total. */
void
driveSession(Session& s, const Vocabulary& v, const char* spanName,
             double seconds, long long minRequests, long long digestPrefix)
{
    std::string line, reply;
    const Clock::time_point start = Clock::now();
    while (s.sent < minRequests || secondsSince(start) < seconds) {
        const Request r = s.stream.next();
        renderRequest(v, r, s.sent, line);
        const Clock::time_point sentAt = Clock::now();
        bool ok = false;
        {
            Span span(spanName, s.sent % kSpanEvery == 0);
            ok = s.client->roundTrip(line, reply);
        }
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - sentAt)
                .count();
        if (!ok) {
            s.ioError = true;
            ++s.failed;
            return;
        }
        const bool okReply = reply.find("\"ok\":true") != std::string::npos;
        if (!okReply) {
            ++s.failed;
            if (s.firstFailure.empty())
                s.firstFailure = reply;
        }
        std::uint8_t code = static_cast<std::uint8_t>(r.op);
        if (r.op == Op::Load &&
            reply.find("\"cached\":true") != std::string::npos)
            code |= kCachedBit;
        s.ops.push_back(code);
        s.latencyUs.push_back(static_cast<float>(us));
        s.checked.push_back(okReply && (r.op == Op::Idd ||
                                        r.op == Op::Evaluate)
                                ? fnv1a64(checkedNumbers(r.op, reply))
                                : 0);
        // Load replies carry the timing-dependent "cached" flag.
        if (s.sent < digestPrefix && r.op != Op::Load)
            s.digestText += reply + '\n';
        ++s.sent;
    }
}

/** Requests [begin, end) of every session in one phase. */
struct SessionPhase {
    std::vector<long long> begin, end;
    double wall = 0;

    long long requests() const
    {
        long long n = 0;
        for (size_t i = 0; i < begin.size(); ++i)
            n += end[i] - begin[i];
        return n;
    }
};

SessionPhase
driveSessions(std::vector<Session>& sessions, const Vocabulary& v,
              const char* spanName, double seconds, long long minRequests,
              long long digestPrefix)
{
    SessionPhase phase;
    for (const Session& s : sessions)
        phase.begin.push_back(s.sent);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (Session& s : sessions) {
        Session* session = &s;
        threads.emplace_back([=, &v] {
            driveSession(*session, v, spanName, seconds, minRequests,
                         digestPrefix);
        });
    }
    for (std::thread& t : threads)
        t.join();
    phase.wall = secondsSince(start);
    for (const Session& s : sessions)
        phase.end.push_back(s.sent);
    return phase;
}

/** Latencies (us) of a phase's requests; @p op < 0 selects all, and
 *  @p smallOnly drops loads. */
std::vector<double>
phaseLatencies(const std::vector<Session>& sessions,
               const SessionPhase& phase, int op, bool smallOnly = false)
{
    std::vector<double> out;
    for (size_t i = 0; i < sessions.size(); ++i) {
        const Session& s = sessions[i];
        for (long long r = phase.begin[i]; r < phase.end[i]; ++r) {
            const int code = s.ops[r] & ~kCachedBit;
            if ((op < 0 || code == op) &&
                !(smallOnly && code == static_cast<int>(Op::Load)))
                out.push_back(s.latencyUs[r]);
        }
    }
    return out;
}

/** Per-op execute times of the bench's replay, in nanoseconds. */
struct ReplayTimes {
    std::vector<double> byOp[5];
};

/**
 * Re-run the first `sent` requests of a session on the bench's own
 * VariantEvaluator — a fresh one per load, like the daemon — and count
 * the idd/evaluate replies whose numbers differ, each rendered with
 * %.9g like the protocol.
 */
long long
replayMismatches(const Session& s, const Vocabulary& v, Mix mix,
                 const std::vector<DramPowerModel>& models,
                 ReplayTimes& times)
{
    RequestStream stream(s.seed, mix, static_cast<int>(v.perturbs.size()));
    std::optional<VariantEvaluator> current;
    long long mismatches = 0;
    for (long long i = 0; i < s.sent; ++i) {
        const Request r = stream.next();
        const Clock::time_point start = Clock::now();
        std::string numbers;
        switch (r.op) {
        case Op::Load: current.emplace(models[r.variant]); break;
        case Op::Perturb: {
            const Vocabulary::Perturbation& p = v.perturbs[r.perturb];
            const SweepParam& param = v.params[p.param];
            if (!current
                     ->applyPerturbation(
                         [&](DramDescription& d) {
                             param.apply(d, p.factor);
                         },
                         param.dirty)
                     .ok())
                ++mismatches;
            break;
        }
        case Op::Idd:
            numbers = jsonNumber(current->idd(kMeasures[r.measure]));
            break;
        case Op::Evaluate: {
            const PatternPower p = current->evaluateDefault();
            numbers = jsonNumber(p.power) + "," +
                      jsonNumber(p.externalCurrent) + "," +
                      jsonNumber(p.energyPerBit) + "," +
                      jsonNumber(p.busUtilization) + "," +
                      jsonNumber(p.loopTime);
            break;
        }
        case Op::Reset: current->reset(); break;
        }
        times.byOp[static_cast<int>(r.op)].push_back(nanosSince(start));
        if ((r.op == Op::Idd || r.op == Op::Evaluate) &&
            fnv1a64(numbers) != s.checked[i])
            ++mismatches;
    }
    return mismatches;
}

/**
 * Runs a blocking service entry point (runServeServer, runFleet) on its
 * own thread: the constructor returns once the service is accepting,
 * stop() raises the stop flag and returns the service's result.
 */
template <class Stats>
class BackgroundService {
  public:
    using Entry = std::function<Result<Stats>(std::atomic<bool>* stop,
                                              std::function<void()> ready)>;

    explicit BackgroundService(Entry entry)
    {
        thread_ = std::thread([this, entry = std::move(entry)] {
            Result<Stats> result = entry(&stop_, [this] {
                std::lock_guard<std::mutex> lock(mutex_);
                ready_ = true;
                changed_.notify_all();
            });
            std::lock_guard<std::mutex> lock(mutex_);
            result_.emplace(std::move(result));
            changed_.notify_all();
        });
        std::unique_lock<std::mutex> lock(mutex_);
        changed_.wait_for(lock, std::chrono::seconds(30),
                          [this] { return ready_ || result_.has_value(); });
        if (!ready_) {
            const std::string why =
                result_ && !result_->ok() ? result_->error().toString()
                                          : "not ready within 30 s";
            lock.unlock();
            stop();
            throw std::runtime_error("service start failed: " + why);
        }
    }

    ~BackgroundService()
    {
        if (thread_.joinable())
            stop();
    }
    BackgroundService(const BackgroundService&) = delete;
    BackgroundService& operator=(const BackgroundService&) = delete;

    Result<Stats> stop()
    {
        stop_.store(true);
        thread_.join();
        return std::move(*result_);
    }

  private:
    std::atomic<bool> stop_{false};
    std::mutex mutex_;
    std::condition_variable changed_;
    bool ready_ = false;
    std::optional<Result<Stats>> result_;
    std::thread thread_;
};

/** A running service, its sessions and the loaded descriptions. */
template <class Stats>
struct SessionFixture {
    std::vector<DramPowerModel> models; ///< nominal, one per load text
    Vocabulary vocabulary;
    std::vector<std::string> texts; ///< fleet load texts
    std::unique_ptr<BackgroundService<Stats>> service;
    std::vector<Session> sessions; ///< closed before the service stops
};

template <class Stats>
void
connectSessions(SessionFixture<Stats>& f, const std::string& socketPath,
                std::uint64_t seed, Mix mix)
{
    for (int c = 0; c < kClients; ++c) {
        f.sessions.emplace_back(deriveStreamSeed(seed, 500 + c), mix,
                                f.vocabulary, socketPath);
    }
}

/** Outcome checks and metrics shared by serve_whatif and fleet_mixed;
 *  returns the replay's per-op execute times. */
template <class Stats>
ReplayTimes
checkSessions(Report& report, SessionFixture<Stats>& f, Mix mix)
{
    long long sent = 0, failed = 0, mismatches = 0;
    bool ioOk = true;
    std::string digestText;
    ReplayTimes times;
    for (const Session& s : f.sessions) {
        sent += s.sent;
        failed += s.failed;
        ioOk = ioOk && !s.ioError;
        if (!s.firstFailure.empty())
            std::fprintf(stderr, "first failed reply: %s\n",
                         s.firstFailure.c_str());
        digestText += s.digestText;
        mismatches += replayMismatches(s, f.vocabulary, mix, f.models,
                                       times);
    }
    report.work(sent, failed);
    report.check("every request got a reply", ioOk);
    report.check("every reply is ok (none failed or shed)", failed == 0);
    report.check("idd/evaluate replies equal the bench's own replay",
                 mismatches == 0);
    report.digest(digestText);
    return times;
}

void
reportSessionEndToEnd(Report& report, const std::vector<Session>& sessions,
                      const SessionPhase& plain)
{
    const std::vector<double> all = phaseLatencies(sessions, plain, -1);
    report.metric("work_per_s", plain.requests() / plain.wall, "1/s");
    report.metric("p50_us", percentile(all, 0.5), "us");
    report.metric("p99_us", percentile(all, 0.99), "us");
    report.metric("e2e.latency_samples", static_cast<double>(all.size()),
                  "count");
}

/** Per-op latency percentiles of the traced half, with counts. */
void
reportOps(Report& report, const std::vector<Session>& sessions,
          const SessionPhase& traced, const char* layer,
          std::initializer_list<Op> ops)
{
    for (Op op : ops) {
        const std::vector<double> lat =
            phaseLatencies(sessions, traced, static_cast<int>(op));
        const std::string prefix =
            strformat("%s.op.%s.", layer, kOpNames[static_cast<int>(op)]);
        report.metric(prefix + "p50_us", percentile(lat, 0.5), "us");
        report.metric(prefix + "p99_us", percentile(lat, 0.99), "us");
        report.metric(prefix + "count", static_cast<double>(lat.size()),
                      "count");
    }
}

void
runServeWhatif(const Options& options, Report& report)
{
    const std::string socketPath = options.workdir + "/serve.sock";
    const Mix mix{1, 0, kServeResetEvery};
    using Fixture = SessionFixture<ServeStats>;
    std::unique_ptr<Fixture> fixture;
    const double setupSeconds = setUp(fixture, [&] {
        auto f = std::make_unique<Fixture>();
        f->models.push_back(valueOrThrow(
            DramPowerModel::create(presetNamed("ddr3_2g_55")), "preset"));
        f->vocabulary = makeVocabulary(
            {"\"op\":\"load\",\"preset\":\"ddr3_2g_55\""}, f->models);
        f->service = std::make_unique<BackgroundService<ServeStats>>(
            [&](std::atomic<bool>* stop, std::function<void()> ready) {
                ServeOptions serve;
                serve.socketPath = socketPath;
                serve.threads = kJobs;
                serve.stopFlag = stop;
                serve.onReady = std::move(ready);
                return runServeServer(serve);
            });
        connectSessions(*f, socketPath, options.seed, mix);
        return f;
    });
    Fixture& f = *fixture;

    const long long prefix = scaled(kDigestRequests, options.scale);
    const SessionPhase plain = driveSessions(
        f.sessions, f.vocabulary, "serve.request",
        options.traced ? options.seconds / 2 : options.seconds, prefix,
        prefix);
    SessionPhase traced;
    if (options.traced) {
        startTracing();
        traced = driveSessions(f.sessions, f.vocabulary, "serve.request",
                               options.seconds / 2, 0, prefix);
    }
    for (Session& s : f.sessions)
        s.client.reset();
    const ServeStats stats = valueOrThrow(f.service->stop(), "serve daemon");
    const bool invariant = stats.requestsAccepted ==
                           stats.responsesWritten + stats.responsesFailed;
    report.check("serve drained on the stop flag", stats.drained);
    report.check("accepted == written + failed", invariant);
    report.check("no session fault", stats.sessionFaults == 0);
    const ReplayTimes times = checkSessions(report, f, mix);

    reportSessionEndToEnd(report, f.sessions, plain);
    if (options.traced) {
        report.metric("tracing_overhead_pct",
                      overheadPct(plain.requests() / plain.wall,
                                  traced.requests() / traced.wall),
                      "%");
        reportOps(report, f.sessions, traced, "serve",
                  {Op::Perturb, Op::Idd, Op::Evaluate, Op::Reset});
        const std::vector<double> all =
            phaseLatencies(f.sessions, traced, -1);
        report.metric("serve.lat.p999_us",
                      all.size() >= kP999MinSamples
                          ? percentile(all, 0.999)
                          : 0,
                      "us");
        report.metric("serve.lat.count", static_cast<double>(all.size()),
                      "count");

        // Parse cost of the same request lines, outside the daemon.
        RequestStream lines(f.sessions[0].seed, mix,
                            static_cast<int>(f.vocabulary.perturbs.size()));
        const long long n = scaled(kParseLines, options.scale);
        std::string line;
        bool parsed = true;
        Clock::time_point start = Clock::now();
        {
            Span span("serve.protocol.parse");
            for (long long i = 0; i < n; ++i) {
                renderRequest(f.vocabulary, lines.next(), i, line);
                line.pop_back();
                parsed = parseServeRequest(line).ok() && parsed;
            }
        }
        const double parseNs = nanosSince(start) / n;
        report.check("request lines parse", parsed);
        report.metric("serve.protocol.parse_ns", parseNs, "ns");
        report.metric("core.variant.perturb_ns",
                      median(times.byOp[static_cast<int>(Op::Perturb)]),
                      "ns");
        report.metric("core.variant.idd_ns",
                      median(times.byOp[static_cast<int>(Op::Idd)]), "ns");
        std::vector<double> execute;
        for (Op op : {Op::Perturb, Op::Idd, Op::Evaluate, Op::Reset}) {
            const std::vector<double>& t = times.byOp[static_cast<int>(op)];
            execute.insert(execute.end(), t.begin(), t.end());
        }
        report.metric("serve.transport_us",
                      percentile(phaseLatencies(f.sessions, traced, -1,
                                                true),
                                 0.5) -
                          (parseNs + median(execute)) / 1e3,
                      "us");
        report.metric("serve.shed", static_cast<double>(stats.requestsShed),
                      "count");
        report.metric("serve.deadline_exceeded",
                      static_cast<double>(stats.deadlineExceeded), "count");
    }
    reportCommon(report, setupSeconds);
}

/** Twelve distinct, valid variants of ddr3_1g_55 as canonical DSL. */
std::vector<std::string>
fleetTexts(std::uint64_t seed)
{
    std::mt19937_64 rng(deriveStreamSeed(seed, 400));
    const std::vector<SweepParam> params =
        sweepParameters(SweepMode::Detailed);
    const DramDescription base = presetNamed("ddr3_1g_55");
    std::vector<std::string> texts;
    while (texts.size() < static_cast<size_t>(kFleetVariants)) {
        DramDescription d = base;
        for (int k = 0; k < 3; ++k) {
            const SweepParam& p = params[rng() % params.size()];
            p.apply(d, 0.9 + 0.2 * static_cast<double>(rng() % 1001) / 1000);
        }
        if (!validateDescription(d).ok())
            continue;
        std::string text = writeDescription(d);
        if (std::find(texts.begin(), texts.end(), text) == texts.end())
            texts.push_back(std::move(text));
    }
    return texts;
}

/** p50 (us) of @p n small ops after one load, on a fresh connection. */
double
smallOpP50(const std::string& socketPath, const Vocabulary& v,
           std::uint64_t seed, long long n, long long& failed)
{
    Session s(seed, Mix{1, 0, 0}, v, socketPath);
    driveSession(s, v, "fleet.hop", 0, n + 1, 0);
    failed += s.failed;
    // Request 0 is the load; the rest are the small ops.
    return percentile(
        std::vector<double>(s.latencyUs.begin() + 1, s.latencyUs.end()),
        0.5);
}

void
runFleetMixed(const Options& options, Report& report)
{
    const std::string socketPath = options.workdir + "/fleet.sock";
    const std::string socketDir = options.workdir + "/fleet.d";
    const Mix mix{kFleetVariants, kFleetOpsPerLoad + 1, 0};
    const double heartbeat = 0.05;
    using Fixture = SessionFixture<FleetStats>;
    std::unique_ptr<Fixture> fixture;
    const double setupSeconds = setUp(fixture, [&] {
        auto f = std::make_unique<Fixture>();
        f->texts = fleetTexts(options.seed);
        std::vector<std::string> loads;
        for (const std::string& text : f->texts) {
            f->models.push_back(valueOrThrow(
                DramPowerModel::create(
                    valueOrThrow(parseDescription(text), "variant text")),
                "variant"));
            loads.push_back("\"op\":\"load\",\"text\":\"" +
                            JsonWriter::escape(text) + "\"");
        }
        f->vocabulary = makeVocabulary(std::move(loads), f->models);
        f->service = std::make_unique<BackgroundService<FleetStats>>(
            [&](std::atomic<bool>* stop, std::function<void()> ready) {
                FleetOptions fleet;
                fleet.exePath = VDRAM_BENCH_CLI;
                fleet.socketPath = socketPath;
                fleet.socketDir = socketDir;
                fleet.workers = kJobs;
                fleet.heartbeatSeconds = heartbeat;
                fleet.serve.threads = 1;
                fleet.serve.cacheCapacity = 4;
                fleet.stopFlag = stop;
                fleet.onReady = std::move(ready);
                return runFleet(fleet);
            });
        // Ready means both workers answer a probe and the supervisor
        // has had a heartbeat to see it, so sessions shard over both.
        for (int w = 0; w < kJobs; ++w) {
            const std::string worker =
                strformat("%s/worker-%d.sock", socketDir.c_str(), w);
            const Clock::time_point start = Clock::now();
            while (!probeServeWorker(worker, 1.0).ok()) {
                if (secondsSince(start) > 30)
                    throw std::runtime_error("fleet worker not ready");
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            }
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(2 * heartbeat));
        connectSessions(*f, socketPath, options.seed, mix);
        return f;
    });
    Fixture& f = *fixture;

    const long long prefix = scaled(kDigestRequests, options.scale);
    const SessionPhase plain = driveSessions(
        f.sessions, f.vocabulary, "fleet.request",
        options.traced ? options.seconds / 2 : options.seconds, prefix,
        prefix);
    SessionPhase traced;
    double hopUs = 0;
    long long hopFailed = 0;
    if (options.traced) {
        startTracing();
        traced = driveSessions(f.sessions, f.vocabulary, "fleet.request",
                               options.seconds / 2, 0, prefix);
        const long long n = scaled(kHopRequests, options.scale);
        const std::uint64_t hopSeed = deriveStreamSeed(options.seed, 600);
        hopUs = smallOpP50(socketPath, f.vocabulary, hopSeed, n, hopFailed) -
                smallOpP50(socketDir + "/worker-0.sock", f.vocabulary,
                           hopSeed, n, hopFailed);
    }
    for (Session& s : f.sessions)
        s.client.reset();
    const FleetStats stats = valueOrThrow(f.service->stop(), "fleet");
    report.check("fleet drained cleanly (cleanDrain)", stats.cleanDrain());
    report.check("no worker restarted or died",
                 stats.supervisor.restarts == 0 &&
                     stats.supervisor.workersDead == 0);
    report.check("router shed nothing", stats.router.requestsShed == 0);
    report.check("route-hop probes got ok replies", hopFailed == 0);
    checkSessions(report, f, mix);

    reportSessionEndToEnd(report, f.sessions, plain);
    if (options.traced) {
        report.metric("tracing_overhead_pct",
                      overheadPct(plain.requests() / plain.wall,
                                  traced.requests() / traced.wall),
                      "%");
        reportOps(report, f.sessions, traced, "fleet",
                  {Op::Load, Op::Perturb, Op::Idd, Op::Evaluate});
        report.metric("fleet.route_hop_us", hopUs, "us");
        long long loads = 0, cached = 0;
        for (size_t i = 0; i < f.sessions.size(); ++i) {
            const Session& s = f.sessions[i];
            for (long long r = traced.begin[i]; r < traced.end[i]; ++r) {
                if ((s.ops[r] & ~kCachedBit) ==
                    static_cast<int>(Op::Load)) {
                    ++loads;
                    cached += (s.ops[r] & kCachedBit) != 0;
                }
            }
        }
        report.metric("serve.cache.hit_frac",
                      loads > 0 ? static_cast<double>(cached) / loads : 0,
                      "ratio");
        report.metric("fleet.failovers",
                      static_cast<double>(stats.router.failovers), "count");
        report.metric("fleet.restarts",
                      static_cast<double>(stats.supervisor.restarts),
                      "count");

        // The DSL and model-build cost of the load texts themselves.
        std::vector<double> parse, write, validate, create;
        Span span("dsl.load_texts");
        for (int rep = 0; rep < 20; ++rep) {
            for (const std::string& text : f.texts) {
                Clock::time_point start = Clock::now();
                DramDescription d =
                    valueOrThrow(parseDescription(text), "variant text");
                parse.push_back(nanosSince(start));
                start = Clock::now();
                const std::string canonical = writeDescription(d);
                write.push_back(nanosSince(start));
                start = Clock::now();
                const bool valid = validateDescription(d).ok();
                validate.push_back(nanosSince(start));
                start = Clock::now();
                const bool built = DramPowerModel::create(d).ok();
                create.push_back(nanosSince(start));
                if (!valid || !built || canonical.empty())
                    throw std::runtime_error("variant text does not build");
            }
        }
        report.metric("dsl.parse_ns", median(parse), "ns");
        report.metric("dsl.write_ns", median(write), "ns");
        report.metric("core.validate_ns", median(validate), "ns");
        report.metric("core.model.create_ns", median(create), "ns");
    }
    reportCommon(report, setupSeconds);
}

// ---------------------------------------------------------------------

bool
parseArgs(int argc, char** argv, Options& options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char* flag) -> const char* {
            const size_t n = std::strlen(flag);
            return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
        };
        char* end = nullptr;
        if (const char* v = value("--workload=")) {
            options.workload = v;
        } else if (const char* v = value("--seed=")) {
            options.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0')
                return false;
        } else if (const char* v = value("--seconds=")) {
            options.seconds = std::strtod(v, &end);
            if (*end != '\0' || !(options.seconds > 0))
                return false;
        } else if (const char* v = value("--scale=")) {
            options.scale = std::strtod(v, &end);
            if (*end != '\0' || !(options.scale > 0) || options.scale > 1)
                return false;
        } else if (const char* v = value("--workdir=")) {
            options.workdir = v;
        } else if (const char* v = value("--trace-out=")) {
            options.traceOut = v;
        } else if (arg == "--traced") {
            options.traced = true;
        } else {
            return false;
        }
    }
    return !options.workload.empty();
}

} // namespace

int
main(int argc, char** argv)
{
    Options options;
    if (!parseArgs(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: bench_e2e --workload=NAME --seed=S "
                     "[--seconds=T] [--traced] [--scale=F] [--workdir=DIR] "
                     "[--trace-out=FILE]\n"
                     "workloads: mc_campaign trace_replay sched_trace "
                     "serve_whatif fleet_mixed\n");
        return 2;
    }
    using Workload = void (*)(const Options&, Report&);
    const std::pair<const char*, Workload> workloads[] = {
        {"mc_campaign", runMcCampaign},   {"trace_replay", runTraceReplay},
        {"sched_trace", runSchedTrace},   {"serve_whatif", runServeWhatif},
        {"fleet_mixed", runFleetMixed},
    };
    Workload run = nullptr;
    for (const auto& [name, fn] : workloads) {
        if (options.workload == name)
            run = fn;
    }
    if (!run) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     options.workload.c_str());
        return 2;
    }
    try {
        std::filesystem::create_directories(options.workdir);
        Report report;
        run(options, report);
        if (options.traced && !options.traceOut.empty()) {
            std::ofstream out(options.traceOut, std::ios::trunc);
            out << benchSpans().renderChromeJson() << '\n';
            report.check("chrome trace written", static_cast<bool>(out));
        }
        return report.finish();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 2;
    }
}
