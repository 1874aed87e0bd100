/**
 * @file
 * Windowed time-series telemetry and SLO burn-rate monitoring tests.
 *
 * The windowed percentiles and rates are checked against brute-force
 * references over the same sample streams; the mergeability claim
 * (per-replica histograms merge bit-identically to the single-stream
 * histogram) and the window-alignment claim (absolute boundaries,
 * independent of a stream's first sample) are pinned exactly, because
 * the CI soak job and the cross-replica scoreboard rely on them.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "telemetry/attribution.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_sink.hh"

using namespace fafnir;
using namespace fafnir::telemetry;

namespace
{

/** Deterministic positive sample stream (LCG; no libc rand). */
struct SampleGen
{
    std::uint64_t state;

    explicit SampleGen(std::uint64_t seed) : state(seed) {}

    double
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        // Spread over ~4 decades so samples cross bucket octaves.
        const double u =
            static_cast<double>(state >> 40) / double(1ull << 24);
        return 0.05 + u * 900.0;
    }
};

/** Nearest-rank percentile over raw samples (the brute-force ref). */
double
nearestRank(std::vector<double> samples, double p)
{
    if (samples.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(samples.begin(), samples.end());
    const double rank = p / 100.0 * static_cast<double>(samples.size());
    std::size_t idx =
        static_cast<std::size_t>(std::ceil(rank));
    if (idx > 0)
        --idx;
    if (idx >= samples.size())
        idx = samples.size() - 1;
    return samples[idx];
}

} // namespace

// --- LogHistogram -----------------------------------------------------

TEST(LogHistogram, BucketUpperEdgeBoundsSample)
{
    // A reported quantile is the bucket's upper edge: never below the
    // sample, at most one sub-bucket (6.25%) above it.
    SampleGen gen(7);
    for (int i = 0; i < 2000; ++i) {
        const double v = gen.next();
        const double edge =
            LogHistogram::bucketValue(LogHistogram::bucketOf(v));
        EXPECT_GE(edge, v);
        EXPECT_LE(edge, v * (1.0 + 1.0 / LogHistogram::kSubBuckets) *
                            (1.0 + 1e-12));
    }
}

TEST(LogHistogram, DegenerateSamplesLandInUnderflowBucket)
{
    EXPECT_EQ(LogHistogram::bucketOf(0.0), 0u);
    EXPECT_EQ(LogHistogram::bucketOf(-3.5), 0u);
    EXPECT_EQ(LogHistogram::bucketOf(
                  std::numeric_limits<double>::quiet_NaN()),
              0u);
    EXPECT_EQ(LogHistogram::bucketValue(0), 0.0);
}

namespace
{

/** The frexp formula bucketOf() replaced, kept as its reference. */
std::size_t
frexpBucketOf(double v)
{
    if (!(v > 0.0) || !std::isfinite(v))
        return 0;
    int exp = 0;
    const double frac = std::frexp(v, &exp); // v = frac * 2^exp, [0.5, 1)
    if (exp < LogHistogram::kMinExp)
        return 0;
    if (exp > LogHistogram::kMaxExp)
        return LogHistogram::kBucketCount - 1;
    auto sub = static_cast<unsigned>((frac - 0.5) * 2.0 *
                                     LogHistogram::kSubBuckets);
    if (sub >= LogHistogram::kSubBuckets)
        sub = LogHistogram::kSubBuckets - 1;
    return 1 + static_cast<std::size_t>(exp - LogHistogram::kMinExp) *
                   LogHistogram::kSubBuckets +
           sub;
}

} // namespace

TEST(LogHistogram, BucketOfMatchesFrexpReference)
{
    using limits = std::numeric_limits<double>;
    std::vector<double> values = {
        0.0,
        -0.0,
        -1.0,
        -limits::max(),
        -limits::denorm_min(),
        limits::quiet_NaN(),
        -limits::quiet_NaN(),
        limits::signaling_NaN(),
        limits::infinity(),
        -limits::infinity(),
        limits::denorm_min(),
        limits::min() / 2.0,
        limits::min(),
        limits::max(),
    };
    // Both sides of the range ends, and the neighbours of every power
    // of two in range.
    for (int e = LogHistogram::kMinExp - 2; e <= LogHistogram::kMaxExp + 1;
         ++e) {
        const double pow2 = std::ldexp(1.0, e);
        values.push_back(pow2);
        values.push_back(std::nextafter(pow2, 0.0));
        values.push_back(std::nextafter(pow2, limits::infinity()));
        // Sub-bucket edges inside the octave [2^e, 2^(e+1)).
        for (unsigned sub = 1; sub < LogHistogram::kSubBuckets; ++sub) {
            const double edge =
                pow2 * (1.0 + sub / double(LogHistogram::kSubBuckets));
            values.push_back(edge);
            values.push_back(std::nextafter(edge, 0.0));
        }
    }
    // A seeded stream of random bit patterns: every sign, exponent
    // (normal, subnormal, inf/NaN) and mantissa.
    Rng rng(2021);
    for (int i = 0; i < 200000; ++i)
        values.push_back(std::bit_cast<double>(rng.next()));
    // Random positive values concentrated on the histogram's range.
    for (int i = 0; i < 200000; ++i) {
        const int e = static_cast<int>(
            rng.nextRange(0, LogHistogram::kMaxExp - LogHistogram::kMinExp +
                                 4)) +
                      LogHistogram::kMinExp - 2;
        values.push_back(std::ldexp(1.0 + rng.nextDouble(), e));
    }
    for (const double v : values)
        ASSERT_EQ(LogHistogram::bucketOf(v), frexpBucketOf(v))
            << "v=" << v << " bits=" << std::hex
            << std::bit_cast<std::uint64_t>(v);
}

TEST(LogHistogram, EmptyIsNaN)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(std::isnan(h.mean()));
    EXPECT_TRUE(std::isnan(h.percentile(50.0)));
}

TEST(LogHistogram, PercentileMatchesBruteForceReference)
{
    LogHistogram h;
    std::vector<double> samples;
    SampleGen gen(11);
    for (int i = 0; i < 500; ++i) {
        const double v = gen.next();
        samples.push_back(v);
        h.record(v);
    }
    for (double p : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
        // The histogram reports exactly the upper edge of the bucket
        // the true nearest-rank sample fell into.
        const double expect = LogHistogram::bucketValue(
            LogHistogram::bucketOf(nearestRank(samples, p)));
        EXPECT_DOUBLE_EQ(h.percentile(p), expect) << "p=" << p;
    }
}

TEST(LogHistogram, MergeIsBitIdenticalToSingleStream)
{
    // Partition one stream across three "replicas"; the merge (in any
    // order) must equal the single-stream histogram bucket-for-bucket.
    LogHistogram whole, parts[3];
    SampleGen gen(23);
    for (int i = 0; i < 1000; ++i) {
        const double v = gen.next();
        whole.record(v);
        parts[i % 3].record(v);
    }
    LogHistogram merged;
    merged.merge(parts[2]);
    merged.merge(parts[0]);
    merged.merge(parts[1]);
    EXPECT_TRUE(merged.identicalBuckets(whole));
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_DOUBLE_EQ(merged.percentile(99.0), whole.percentile(99.0));
}

// --- Window alignment and eviction ------------------------------------

TEST(WindowedCounter, TumblingBoundariesAreAbsolute)
{
    // A stream whose first sample lands mid-run must see the same
    // window boundaries as one that started at tick 0: windows align
    // to tick 0, not to the first sample.
    WindowedCounter late(100, 64);
    late.record(250);
    EXPECT_EQ(late.newestIndex(), 2u);
    EXPECT_EQ(late.oldestIndex(), 2u); // no phantom windows before it
    late.record(299); // same window as 250
    EXPECT_EQ(late.windowValue(2), 2u);
    late.record(300); // boundary: next window
    EXPECT_EQ(late.newestIndex(), 3u);
    EXPECT_EQ(late.windowValue(3), 1u);
    EXPECT_EQ(late.windowCount(), 2u);

    WindowedCounter early(100, 64);
    early.record(0);
    early.record(250);
    EXPECT_EQ(early.indexOf(250), late.indexOf(250));
    EXPECT_EQ(early.windowValue(2), 1u);
}

TEST(WindowedCounter, RollingEvictionIsExact)
{
    WindowedCounter c(100, 4); // retain 4 windows
    for (std::uint64_t w = 0; w < 10; ++w)
        c.record(w * 100, w + 1); // window w holds w+1 events
    // Windows 6..9 retained; 0..5 evicted.
    EXPECT_EQ(c.oldestIndex(), 6u);
    EXPECT_EQ(c.evictions(), 6u);
    EXPECT_EQ(c.windowValue(5), 0u); // evicted reads as empty
    EXPECT_EQ(c.rollingSum(4), 7u + 8u + 9u + 10u);
    EXPECT_EQ(c.rollingSum(2), 9u + 10u);
    EXPECT_EQ(c.total(), 55u); // evicted windows still count here

    // A sample older than the retained range is a counted late drop.
    c.record(100);
    EXPECT_EQ(c.lateDrops(), 1u);
    EXPECT_EQ(c.total(), 55u);

    // Rates: 2 windows x 100 ticks at kTicksPerSec ticks/sec.
    const double secs = 200.0 / double(kTicksPerSec);
    EXPECT_DOUBLE_EQ(c.rollingRatePerSec(2), 19.0 / secs);
}

TEST(WindowedHistogram, WindowedPercentilesMatchBruteForce)
{
    const Tick window = 1000;
    WindowedHistogram h(window, 256);
    std::map<std::uint64_t, std::vector<double>> ref;
    SampleGen gen(31);
    std::uint64_t tick_state = 17;
    Tick tick = 5000; // offset start: first window is not window 0
    for (int i = 0; i < 3000; ++i) {
        tick_state =
            tick_state * 2862933555777941757ull + 3037000493ull;
        tick += tick_state % 40; // non-decreasing, crosses windows
        const double v = gen.next();
        h.record(tick, v);
        ref[tick / window].push_back(v);
    }
    ASSERT_GT(ref.size(), 10u);
    double peak99 = std::numeric_limits<double>::quiet_NaN();
    for (const auto &[w, samples] : ref) {
        const LogHistogram *win = h.window(w);
        ASSERT_NE(win, nullptr) << "window " << w;
        EXPECT_EQ(win->count(), samples.size());
        for (double p : {50.0, 95.0, 99.0}) {
            const double expect = LogHistogram::bucketValue(
                LogHistogram::bucketOf(nearestRank(samples, p)));
            EXPECT_DOUBLE_EQ(win->percentile(p), expect)
                << "window " << w << " p" << p;
        }
        const double w99 = win->percentile(99.0);
        if (!(w99 <= peak99)) // NaN-safe max
            peak99 = w99;
    }
    EXPECT_DOUBLE_EQ(h.peakWindowPercentile(99.0), peak99);

    // Rolling(k) must equal the brute-force merge of the last k
    // windows (empty interior windows included in the span).
    LogHistogram manual;
    const std::uint64_t newest = h.newestIndex();
    for (std::uint64_t w = newest >= 3 ? newest - 3 : 0; w <= newest;
         ++w)
        if (ref.count(w))
            for (double v : ref[w])
                manual.record(v);
    EXPECT_TRUE(h.rolling(4).identicalBuckets(manual));
}

TEST(WindowedHistogram, CrossReplicaMergeIsBitIdentical)
{
    // Shard one stream across three replica histograms (as the serving
    // scoreboard does per engine); merging each window across replicas
    // must reproduce the single-stream windows exactly.
    const Tick window = 500;
    WindowedHistogram whole(window, 64);
    WindowedHistogram replica[3] = {WindowedHistogram(window, 64),
                                    WindowedHistogram(window, 64),
                                    WindowedHistogram(window, 64)};
    SampleGen gen(43);
    for (int i = 0; i < 900; ++i) {
        const Tick tick = static_cast<Tick>(i) * 7;
        const double v = gen.next();
        whole.record(tick, v);
        replica[i % 3].record(tick, v);
    }
    for (std::uint64_t w = whole.oldestIndex(); w <= whole.newestIndex();
         ++w) {
        LogHistogram merged;
        for (const auto &r : replica)
            if (const LogHistogram *win = r.window(w))
                merged.merge(*win);
        const LogHistogram *expect = whole.window(w);
        ASSERT_NE(expect, nullptr);
        EXPECT_TRUE(merged.identicalBuckets(*expect)) << "window " << w;
    }
}

// --- Tail-latency exemplars -------------------------------------------

namespace
{

/** One recorded (sample, exemplar) pair for the brute-force refs. */
struct TaggedSample
{
    double value;
    Exemplar ex;
};

/** Deterministic exemplar whose components telescope to totalTicks. */
Exemplar
makeExemplar(double value, Tick tick, std::uint64_t batch,
             std::uint32_t query)
{
    Exemplar ex;
    ex.value = value;
    ex.tick = tick;
    ex.batch = batch;
    ex.query = query;
    ex.flow = 1000 + batch * 16 + query;
    const Tick total = static_cast<Tick>(value * 1000.0) + 8;
    ex.components = {total / 8, total / 8, total / 8, total / 8,
                     total / 8, total / 8, total / 8,
                     total - 7 * (total / 8)};
    ex.totalTicks = total;
    ex.valid = true;
    return ex;
}

/**
 * The retention total order, brute-forced: the highest-bucket sample
 * wins; ties break to the lexicographically smallest
 * (tick, batch, query, value) so merges are order-independent.
 */
const Exemplar *
bruteForceWinner(const std::vector<TaggedSample> &samples)
{
    const Exemplar *winner = nullptr;
    std::size_t winnerBucket = 0;
    for (const TaggedSample &s : samples) {
        const std::size_t bucket = LogHistogram::bucketOf(s.value);
        const auto key = [](const Exemplar &e) {
            return std::make_tuple(e.tick, e.batch, e.query, e.value);
        };
        if (winner == nullptr || bucket > winnerBucket ||
            (bucket == winnerBucket && key(s.ex) < key(*winner))) {
            winner = &s.ex;
            winnerBucket = bucket;
        }
    }
    return winner;
}

void
expectSameExemplar(const Exemplar &got, const Exemplar &want)
{
    EXPECT_DOUBLE_EQ(got.value, want.value);
    EXPECT_EQ(got.tick, want.tick);
    EXPECT_EQ(got.batch, want.batch);
    EXPECT_EQ(got.query, want.query);
    EXPECT_EQ(got.flow, want.flow);
    EXPECT_EQ(got.totalTicks, want.totalTicks);
    EXPECT_EQ(got.components, want.components);
}

} // namespace

TEST(Exemplar, RetainedExemplarFallsInTailBucketBruteForce)
{
    LogHistogram h;
    std::vector<TaggedSample> samples;
    SampleGen gen(57);
    for (int i = 0; i < 400; ++i) {
        const double v = gen.next();
        const Exemplar ex =
            makeExemplar(v, Tick(10 * i), i / 16, i % 16);
        samples.push_back({v, ex});
        h.recordWithExemplar(v, ex);
    }
    ASSERT_TRUE(h.hasExemplar());
    // The retained exemplar is the brute-force winner and its value
    // really falls in the reported tail bucket.
    expectSameExemplar(h.exemplar(), *bruteForceWinner(samples));
    EXPECT_EQ(LogHistogram::bucketOf(h.exemplar().value),
              h.exemplarBucket());
    // ... which is the histogram's maximum (the p100 bucket).
    EXPECT_DOUBLE_EQ(LogHistogram::bucketValue(h.exemplarBucket()),
                     h.percentile(100.0));
    // And the attribution split telescopes.
    EXPECT_EQ(h.exemplar().componentSum(), h.exemplar().totalTicks);
}

TEST(Exemplar, TieBreakIsDeterministic)
{
    // Two samples in the same bucket: the smaller (tick, batch, query)
    // tuple must win regardless of arrival order.
    const Exemplar first = makeExemplar(100.0, 500, 2, 1);
    const Exemplar second = makeExemplar(100.0, 300, 1, 7);
    ASSERT_EQ(LogHistogram::bucketOf(100.0),
              LogHistogram::bucketOf(100.0));

    LogHistogram ab, ba;
    ab.recordWithExemplar(100.0, first);
    ab.recordWithExemplar(100.0, second);
    ba.recordWithExemplar(100.0, second);
    ba.recordWithExemplar(100.0, first);
    expectSameExemplar(ab.exemplar(), second); // tick 300 < tick 500
    expectSameExemplar(ba.exemplar(), second);
}

TEST(Exemplar, ReplicaMergeRetainsSameExemplarInAnyOrder)
{
    // Shard one tagged stream across three replicas (as per-engine
    // scoreboard histograms are); any merge order must retain exactly
    // the single-stream exemplar.
    LogHistogram whole, parts[3];
    std::vector<TaggedSample> samples;
    SampleGen gen(71);
    for (int i = 0; i < 600; ++i) {
        const double v = gen.next();
        const Exemplar ex =
            makeExemplar(v, Tick(7 * i), i / 32, i % 32);
        samples.push_back({v, ex});
        whole.recordWithExemplar(v, ex);
        parts[i % 3].recordWithExemplar(v, ex);
    }
    LogHistogram forward, backward;
    forward.merge(parts[0]);
    forward.merge(parts[1]);
    forward.merge(parts[2]);
    backward.merge(parts[2]);
    backward.merge(parts[1]);
    backward.merge(parts[0]);

    ASSERT_TRUE(whole.hasExemplar());
    expectSameExemplar(whole.exemplar(), *bruteForceWinner(samples));
    expectSameExemplar(forward.exemplar(), whole.exemplar());
    expectSameExemplar(backward.exemplar(), whole.exemplar());
    EXPECT_EQ(forward.exemplarBucket(), whole.exemplarBucket());
    EXPECT_EQ(backward.exemplarBucket(), whole.exemplarBucket());
}

TEST(Exemplar, TumblingAndRollingWindowsRetainBruteForceWinner)
{
    const Tick window = 1000;
    WindowedHistogram h(window, 64);
    std::map<std::uint64_t, std::vector<TaggedSample>> ref;
    SampleGen gen(83);
    Tick tick = 100;
    for (int i = 0; i < 1500; ++i) {
        tick += 1 + (i * 13) % 29;
        const double v = gen.next();
        const Exemplar ex = makeExemplar(v, tick, i / 16, i % 16);
        h.record(tick, v, ex);
        ref[tick / window].push_back({v, ex});
    }
    ASSERT_GT(ref.size(), 5u);
    // Every tumbling window retains its own brute-force winner.
    for (const auto &[w, tagged] : ref) {
        const LogHistogram *win = h.window(w);
        ASSERT_NE(win, nullptr) << "window " << w;
        ASSERT_TRUE(win->hasExemplar()) << "window " << w;
        expectSameExemplar(win->exemplar(), *bruteForceWinner(tagged));
        EXPECT_EQ(LogHistogram::bucketOf(win->exemplar().value),
                  win->exemplarBucket())
            << "window " << w;
    }
    // A rolling view retains the winner over the merged span.
    const std::uint64_t newest = h.newestIndex();
    std::vector<TaggedSample> span;
    for (std::uint64_t w = newest >= 3 ? newest - 3 : 0; w <= newest;
         ++w)
        if (ref.count(w))
            for (const TaggedSample &s : ref[w])
                span.push_back(s);
    const LogHistogram rolled = h.rolling(4);
    ASSERT_TRUE(rolled.hasExemplar());
    expectSameExemplar(rolled.exemplar(), *bruteForceWinner(span));
}

TEST(Exemplar, PlainRecordsNeverDisplaceAnExemplar)
{
    LogHistogram h;
    h.recordWithExemplar(50.0, makeExemplar(50.0, 10, 0, 0));
    h.record(900.0); // larger sample, but carries no exemplar
    ASSERT_TRUE(h.hasExemplar());
    EXPECT_DOUBLE_EQ(h.exemplar().value, 50.0);
    EXPECT_EQ(h.exemplarBucket(), LogHistogram::bucketOf(50.0));
}

// --- TimeSeries registry ----------------------------------------------

TEST(TimeSeries, GetOrCreateAndTimeline)
{
    TimeSeriesConfig config;
    config.windowTicks = 100;
    TimeSeries ts(config);
    ts.counter("reqs").record(50, 2);
    ts.counter("reqs").record(250, 1);
    ts.histogram("lat").record(50, 3.0);
    EXPECT_EQ(ts.metricCount(), 2u);
    EXPECT_NE(ts.findCounter("reqs"), nullptr);
    EXPECT_EQ(ts.findCounter("lat"), nullptr); // wrong kind
    EXPECT_EQ(ts.findHistogram("nope"), nullptr);

    std::ostringstream os;
    ts.writeTimeline(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"metric\":\"reqs\""), std::string::npos);
    EXPECT_NE(out.find("\"kind\":\"histogram\""), std::string::npos);
    // Chronological: the tick-0 window rows precede the tick-200 row.
    EXPECT_LT(out.find("\"tick\":0"), out.find("\"tick\":200"));
}

TEST(TimeSeries, RegisterStatsExportsTheTailExemplar)
{
    TimeSeries ts;
    WindowedHistogram &lat = ts.histogram("lat");
    lat.record(10, 3.0, makeExemplar(3.0, 10, 0, 1));
    lat.record(20, 40.0, makeExemplar(40.0, 20, 2, 5));
    ts.histogram("bare").record(30, 7.0);
    StatGroup group("windows");
    ts.registerStats(group);

    std::ostringstream os;
    group.dump(os);
    const std::string out = os.str();
    const Exemplar tail = makeExemplar(40.0, 20, 2, 5);
    const std::string flow = std::to_string(tail.flow) + ".0000";
    const std::string ticks = std::to_string(tail.totalTicks) + ".0000";
    for (const std::string &row : std::vector<std::string>{
             "windows.lat.exemplar.value 40.0000",
             "windows.lat.exemplar.query 5.0000",
             "windows.lat.exemplar.flow " + flow,
             "windows.lat.exemplar.totalTicks " + ticks,
             "windows.lat.exemplar.componentSumTicks " + ticks,
             "windows.bare.exemplar.value nan"})
        EXPECT_NE(out.find(row), std::string::npos) << row << "\n" << out;
}

TEST(TimeSeries, ScopedInstallRestoresPrevious)
{
    EXPECT_EQ(timeseries(), nullptr);
    TimeSeries outer;
    TraceSink trace;
    Attribution attr;
    {
        ScopedContext a(
            {.sink = &trace, .attribution = &attr, .series = &outer});
        EXPECT_EQ(timeseries(), &outer);
        {
            // A partial override (the hedge backup's shape): install a
            // copy of the current context with one member muted.
            Context muted = context();
            muted.series = nullptr;
            ScopedContext off(muted);
            EXPECT_EQ(timeseries(), nullptr);
            EXPECT_EQ(sink(), &trace);
            EXPECT_EQ(attribution(), &attr);
        }
        EXPECT_EQ(timeseries(), &outer);
        EXPECT_EQ(sink(), &trace);
        EXPECT_EQ(attribution(), &attr);
    }
    EXPECT_EQ(timeseries(), nullptr);
    EXPECT_EQ(sink(), nullptr);
    EXPECT_EQ(attribution(), nullptr);
}

// --- SLO spec parsing -------------------------------------------------

TEST(SloSpec, ParsesLatencyAndAvailabilityObjectives)
{
    const auto objectives =
        SloMonitor::parseSpec("p99_latency_us<500; availability>=0.999");
    ASSERT_EQ(objectives.size(), 2u);
    EXPECT_EQ(objectives[0].kind, SloObjective::Kind::LatencyQuantile);
    EXPECT_DOUBLE_EQ(objectives[0].quantile, 99.0);
    EXPECT_DOUBLE_EQ(objectives[0].threshold, 500.0);
    EXPECT_FALSE(objectives[0].inclusive);
    EXPECT_DOUBLE_EQ(objectives[0].target, 0.99);
    EXPECT_TRUE(objectives[0].goodLatency(499.0));
    EXPECT_FALSE(objectives[0].goodLatency(500.0));
    EXPECT_EQ(objectives[1].kind, SloObjective::Kind::Availability);
    EXPECT_TRUE(objectives[1].inclusive);
    EXPECT_DOUBLE_EQ(objectives[1].target, 0.999);
    EXPECT_NEAR(objectives[1].allowed(), 0.001, 1e-12);
}

TEST(SloSpec, RejectsMalformedTerms)
{
    EXPECT_THROW(SloMonitor::parseSpec(""), std::runtime_error);
    EXPECT_THROW(SloMonitor::parseSpec("p99_latency_us"),
                 std::runtime_error);
    EXPECT_THROW(SloMonitor::parseSpec("p99_latency_us>500"),
                 std::runtime_error); // wrong direction
    EXPECT_THROW(SloMonitor::parseSpec("p0_latency_us<500"),
                 std::runtime_error); // quantile out of range
    EXPECT_THROW(SloMonitor::parseSpec("p100_latency_us<500"),
                 std::runtime_error);
    EXPECT_THROW(SloMonitor::parseSpec("availability<0.9"),
                 std::runtime_error); // wrong direction
    EXPECT_THROW(SloMonitor::parseSpec("availability>=1.5"),
                 std::runtime_error); // target outside (0, 1)
    EXPECT_THROW(SloMonitor::parseSpec("error_rate<0.1"),
                 std::runtime_error); // unknown SLI
}

// --- Burn-rate alerting -----------------------------------------------

namespace
{

/** Monitor with small deterministic windows for transition tests. */
SloMonitor
makeMonitor()
{
    BurnConfig burn;
    burn.fastWindowTicks = 100;
    burn.slowWindows = 2;
    burn.fireBurn = 2.0;
    burn.clearBurn = 1.0;
    return SloMonitor(SloMonitor::parseSpec("availability>=0.9"), burn);
}

/** Feed @p good/@p bad outcomes spread across window @p w. */
void
feedWindow(SloMonitor &m, std::uint64_t w, unsigned good, unsigned bad)
{
    Tick tick = w * 100;
    for (unsigned i = 0; i < good; ++i)
        m.recordOutcome(tick++, true);
    for (unsigned i = 0; i < bad; ++i)
        m.recordOutcome(tick++, false);
}

} // namespace

TEST(SloMonitor, FiresAndClearsAtWindowClose)
{
    SloMonitor m = makeMonitor(); // allowed bad fraction: 0.1
    feedWindow(m, 0, 10, 0);      // burn 0
    feedWindow(m, 1, 5, 5);       // fast burn 5, slow burn 2.5 -> fire
    feedWindow(m, 2, 10, 0);      // fast burn 0 -> clear
    m.flush(299);
    ASSERT_EQ(m.transitions().size(), 2u);
    EXPECT_TRUE(m.transitions()[0].fired);
    EXPECT_EQ(m.transitions()[0].tick, 200u); // close of window 1
    EXPECT_GE(m.transitions()[0].fastBurn, 2.0);
    EXPECT_FALSE(m.transitions()[1].fired);
    EXPECT_EQ(m.transitions()[1].tick, 300u); // close of window 2
    EXPECT_EQ(m.totalFires(), 1u);
    EXPECT_EQ(m.totalClears(), 1u);
    EXPECT_FALSE(m.anyActive());
}

TEST(SloMonitor, HysteresisBandPreventsFlapping)
{
    // Burns hovering between clearBurn (1.0) and fireBurn (2.0) must
    // neither clear an active alert nor fire an inactive one.
    SloMonitor m = makeMonitor();
    feedWindow(m, 0, 5, 5);   // burn 5 -> fire at 100
    feedWindow(m, 1, 85, 15); // burn 1.5: in the band -> stays active
    feedWindow(m, 2, 85, 15); // still in the band -> no flap
    feedWindow(m, 3, 100, 0); // burn 0 -> clear at 400
    feedWindow(m, 4, 85, 15); // burn 1.5 inactive: does NOT re-fire
    m.flush(499);
    ASSERT_EQ(m.transitions().size(), 2u);
    EXPECT_EQ(m.transitions()[0].tick, 100u);
    EXPECT_TRUE(m.transitions()[0].fired);
    EXPECT_EQ(m.transitions()[1].tick, 400u);
    EXPECT_FALSE(m.transitions()[1].fired);
    EXPECT_EQ(m.totalFires(), 1u);
    EXPECT_EQ(m.totalClears(), 1u);
}

TEST(SloMonitor, SlowWindowVetoesShortSpike)
{
    // One bad fast window inside a long healthy history must not fire:
    // the slow window keeps the burn below the fire threshold.
    BurnConfig burn;
    burn.fastWindowTicks = 100;
    burn.slowWindows = 8;
    SloMonitor m(SloMonitor::parseSpec("availability>=0.9"), burn);
    for (std::uint64_t w = 0; w < 7; ++w)
        feedWindow(m, w, 100, 0);
    feedWindow(m, 7, 60, 40); // fast burn 4, slow burn 40/800/0.1 = 0.5
    m.flush(799);
    EXPECT_EQ(m.totalFires(), 0u);
    EXPECT_TRUE(m.transitions().empty());
}

TEST(SloMonitor, TransitionSequenceIsDeterministic)
{
    // Identical (tick, good) streams must produce identical transition
    // tick sequences — the property the CI soak job asserts end-to-end.
    auto run = [] {
        SloMonitor m = makeMonitor();
        SampleGen gen(3);
        for (std::uint64_t w = 0; w < 40; ++w) {
            const bool storm = (w % 7) == 3;
            feedWindow(m, w, storm ? 2 : 20, storm ? 8 : 0);
        }
        m.flush(4000);
        std::vector<Tick> ticks;
        for (const auto &t : m.transitions())
            ticks.push_back(t.tick);
        return ticks;
    };
    const auto a = run();
    const auto b = run();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(SloMonitor, BudgetConsumedAccountsWholeRun)
{
    SloMonitor m = makeMonitor(); // allowed 0.1
    feedWindow(m, 0, 90, 10);     // bad fraction exactly the budget
    m.flush(99);
    EXPECT_NEAR(m.budgetConsumed(0), 1.0, 1e-9);
}
