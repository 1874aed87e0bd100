/**
 * @file
 * Hot-path microbenchmark: the simulator's innermost loops.
 *
 * Measures, in isolation, the primitives every timing model spends its
 * cycles in — event-queue throughput (one-shot bursts and
 * self-scheduling chains), items/s through a functional PE
 * (header-only and value-carrying), element-wise reduction and
 * embedding-row generation throughput — plus one composite: batches/s
 * through the event engine's replay. Emits the numbers as a run report
 * (BENCH_hotpath.json by default) so successive performance PRs leave
 * a recorded trajectory; pass --baseline=<earlier report> to get
 * speedup columns against it.
 * Each rate is the best of three runs, so a background process on a
 * shared box cannot masquerade as a regression.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "embedding/quantize.hh"
#include "embedding/table.hh"
#include "fafnir/event_engine.hh"
#include "fafnir/host.hh"
#include "fafnir/pe.hh"
#include "fafnir/pool.hh"
#include "sim/eventq.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/session.hh"

using namespace fafnir;
using namespace fafnir::core;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/**
 * Best rate out of @p reps runs: the box shares one core with the rest
 * of the system, so the max is the least-disturbed measurement.
 */
template <typename F>
auto
bestOf(int reps, F &&run) -> decltype(run())
{
    auto best = run();
    for (int r = 1; r < reps; ++r)
        best = std::max(best, run());
    return best;
}

/** Rounds of one-shot bursts at scattered future ticks, fully drained. */
double
benchEventBurst(std::uint64_t total_events, unsigned burst)
{
    EventQueue eq;
    std::uint64_t sum = 0;
    const auto begin = Clock::now();
    std::uint64_t scheduled = 0;
    while (scheduled < total_events) {
        const Tick base = eq.now();
        for (unsigned i = 0; i < burst; ++i) {
            // Deterministic scatter over a 64-cycle window so the heap
            // sees out-of-order inserts, like DRAM completions do.
            eq.schedule(base + 1 + (i * 7919) % 64,
                        [&sum, i] { sum += i; });
        }
        scheduled += burst;
        eq.run();
    }
    const auto end = Clock::now();
    FAFNIR_ASSERT(sum > 0, "burst callbacks did not run");
    return static_cast<double>(scheduled) / seconds(begin, end);
}

/** A single self-perpetuating one-shot chain (pop + schedule per event). */
double
benchEventChain(std::uint64_t chain_length)
{
    EventQueue eq;
    std::uint64_t remaining = chain_length;
    std::function<void()> next = [&] {
        if (--remaining > 0)
            eq.schedule(eq.now() + 3, next);
    };
    const auto begin = Clock::now();
    eq.schedule(1, next);
    eq.run();
    const auto end = Clock::now();
    FAFNIR_ASSERT(remaining == 0, "chain did not complete");
    return static_cast<double>(chain_length) / seconds(begin, end);
}

/**
 * Two PE input sides for @p pairs queries: query q holds {2q, 2q+1},
 * side A delivers the even vector, side B the odd one — every entry
 * reduces exactly once, like a balanced leaf level. @p query_sets gets
 * each query's full index set and @p headers the flits' headers.
 */
void
makePeSides(std::size_t pairs, std::size_t dim, bool values,
            std::vector<Flit> &a, std::vector<Flit> &b,
            std::vector<IndexSet> &query_sets, HeaderTable &headers)
{
    a.reserve(pairs);
    b.reserve(pairs);
    query_sets.reserve(pairs);
    for (std::size_t q = 0; q < pairs; ++q) {
        const IndexId even = static_cast<IndexId>(2 * q);
        const IndexId odd = even + 1;
        query_sets.push_back({even, odd});
        Flit left;
        left.indices = headers.intern({&even, 1});
        left.queries = {static_cast<QueryId>(q)};
        Flit right;
        right.indices = headers.intern({&odd, 1});
        right.queries = {static_cast<QueryId>(q)};
        if (values) {
            left.value.assign(dim, static_cast<float>(q) * 0.5f);
            right.value.assign(dim, static_cast<float>(q) * 0.25f);
        }
        a.push_back(std::move(left));
        b.push_back(std::move(right));
    }
}

struct PeRates
{
    double itemsPerSec = 0.0;
    double reducedElementsPerSec = 0.0;
};

bool
operator<(const PeRates &a, const PeRates &b)
{
    return a.itemsPerSec < b.itemsPerSec;
}

PeRates
benchPe(std::size_t pairs, std::size_t dim, bool values,
        std::uint64_t iterations)
{
    std::vector<Flit> a;
    std::vector<Flit> b;
    std::vector<IndexSet> query_sets;
    VectorPool pool;
    // One evaluation's shared state, as FunctionalTree::run builds it.
    PeBatch batch{.querySets = query_sets,
                  .headers = HeaderTable(3 * pairs),
                  .values = values,
                  .pool = &pool,
                  .stash = {}};
    makePeSides(pairs, dim, values, a, b, query_sets, batch.headers);

    PeActivity activity;
    std::size_t outputs = 0;
    const auto begin = Clock::now();
    for (std::uint64_t it = 0; it < iterations; ++it) {
        auto out = ProcessingElement::process(a, b, batch, activity);
        outputs += out.size();
        // Steady state: a parent consumes these outputs and their value
        // buffers come back, exactly as FunctionalTree::run recycles.
        pool.releaseValues(out);
    }
    const auto end = Clock::now();
    FAFNIR_ASSERT(outputs == pairs * iterations, "unexpected PE outputs");

    const double elapsed = seconds(begin, end);
    PeRates rates;
    rates.itemsPerSec =
        static_cast<double>(2 * pairs * iterations) / elapsed;
    rates.reducedElementsPerSec =
        values ? static_cast<double>(activity.reduces) *
                     static_cast<double>(dim) / elapsed
               : 0.0;
    return rates;
}

/**
 * Transport-codec throughput in bytes of fp32 payload processed per
 * second (4*dim per vector), against the same-shaped memcpy the fp32
 * path performs. The working set is deliberately larger than LLC: the
 * leaf path quantizes vectors freshly fetched from a store orders of
 * magnitude bigger than cache, so the representative regime is
 * streaming — where the codec's smaller write side (dim bytes of codes
 * vs 4*dim of fp32) lets quant and dequant beat the copy. A cache-
 * resident working set would instead measure the two-pass instruction
 * cost (~75-80% of copy at dim=128; see PERFORMANCE.md).
 */
struct QuantRates
{
    double copyBytesPerSec = 0.0;
    double quantBytesPerSec = 0.0;
    double dequantBytesPerSec = 0.0;
};

bool
operator<(const QuantRates &a, const QuantRates &b)
{
    return a.quantBytesPerSec < b.quantBytesPerSec;
}

QuantRates
benchQuant(std::size_t dim, std::size_t vectors, std::uint64_t iterations)
{
    std::vector<float> src(dim * vectors);
    std::vector<float> dst(dim * vectors);
    std::vector<std::int8_t> codes(dim * vectors);
    // Deterministic pseudo-random payload in the store's value range.
    std::uint32_t state = 0x9e3779b9u;
    for (float &x : src) {
        state = state * 1664525u + 1013904223u;
        x = static_cast<float>(state % 1024u) / 16.0f - 32.0f;
    }

    const double bytes_per_pass = static_cast<double>(dim) * vectors *
                                  sizeof(float) *
                                  static_cast<double>(iterations);
    QuantRates rates;

    auto begin = Clock::now();
    for (std::uint64_t it = 0; it < iterations; ++it)
        for (std::size_t v = 0; v < vectors; ++v)
            std::memcpy(dst.data() + v * dim, src.data() + v * dim,
                        dim * sizeof(float));
    auto end = Clock::now();
    FAFNIR_ASSERT(dst[0] == src[0], "copy bench produced nothing");
    rates.copyBytesPerSec = bytes_per_pass / seconds(begin, end);

    float scale_sum = 0.0f;
    begin = Clock::now();
    for (std::uint64_t it = 0; it < iterations; ++it)
        for (std::size_t v = 0; v < vectors; ++v)
            scale_sum += embedding::quantizeInt8(src.data() + v * dim, dim,
                                                 codes.data() + v * dim);
    end = Clock::now();
    FAFNIR_ASSERT(scale_sum > 0.0f, "quant bench produced zero scales");
    rates.quantBytesPerSec = bytes_per_pass / seconds(begin, end);

    const float scale = embedding::quantizeInt8(src.data(), dim,
                                                codes.data());
    begin = Clock::now();
    for (std::uint64_t it = 0; it < iterations; ++it)
        for (std::size_t v = 0; v < vectors; ++v)
            embedding::dequantizeInt8(codes.data() + v * dim, dim, scale,
                                      dst.data() + v * dim);
    end = Clock::now();
    FAFNIR_ASSERT(dst[0] == static_cast<float>(codes[0]) * scale,
                  "dequant bench produced nothing");
    rates.dequantBytesPerSec = bytes_per_pass / seconds(begin, end);
    return rates;
}

/**
 * Row generation: EmbeddingStore::fill of the default store (32 tables
 * x 1M rows x 512 B) at @p rows seeded random ids, @p iterations times
 * over, the host's per-read value materialisation.
 * @return bytes of fp32 rows written per second.
 */
double
benchStoreFill(std::size_t rows, std::uint64_t iterations)
{
    const embedding::TableConfig tables;
    const embedding::EmbeddingStore store(tables);
    Rng rng(1);
    std::vector<IndexId> ids(rows);
    for (IndexId &id : ids)
        id = static_cast<IndexId>(rng.nextBelow(tables.totalVectors()));
    std::vector<float> row(tables.dim());
    float sink = 0.0f;
    const auto begin = Clock::now();
    for (std::uint64_t it = 0; it < iterations; ++it) {
        for (const IndexId id : ids) {
            store.fill(id, row);
            sink += row.back();
        }
    }
    const auto end = Clock::now();
    FAFNIR_ASSERT(sink > 0.0f, "fill bench produced nothing");
    return static_cast<double>(rows) * static_cast<double>(iterations) *
           tables.vectorBytes / seconds(begin, end);
}

/** Memory shape of the event-replay bench: 32 ranks of DDR4-2400. */
dram::MemorySystem
replayMemory(EventQueue &eq)
{
    return dram::MemorySystem(eq, dram::Geometry::withTotalRanks(32),
                              dram::Timing::ddr4_2400(),
                              dram::Interleave::BlockRank, 512);
}

/**
 * Event replay: EventDrivenEngine::lookupPrepared on a fixed set of
 * prepared 32x24 batches of uniform traffic (nearly every reference a
 * distinct read), headers only — the functional tree plus PE
 * readiness, DRAM completions and PE deliveries through the event
 * queue. A fresh memory system per run keeps runs equal.
 * @return batches per second.
 */
double
benchEventReplay(const embedding::TableConfig &tables,
                 std::vector<PreparedBatch> &batches)
{
    EventQueue eq;
    dram::MemorySystem memory = replayMemory(eq);
    const embedding::VectorLayout layout(tables, memory.mapper());
    EventDrivenEngine engine(memory, layout, EventEngineConfig{});
    Tick t = 0;
    const auto begin = Clock::now();
    for (PreparedBatch &prepared : batches)
        t = engine.lookupPrepared(prepared, t).memLast;
    const auto end = Clock::now();
    FAFNIR_ASSERT(t > 0, "event replay did not advance");
    return static_cast<double>(batches.size()) / seconds(begin, end);
}

/** Naive scan of an earlier report's "metrics" object: name -> value. */
std::map<std::string, double>
loadBaselineMetrics(const std::string &path)
{
    std::map<std::string, double> metrics;
    std::ifstream is(path);
    if (!is) {
        std::cerr << "warning: cannot read baseline " << path << "\n";
        return metrics;
    }
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string text = buffer.str();

    const std::size_t metrics_at = text.find("\"metrics\"");
    if (metrics_at == std::string::npos)
        return metrics;
    const std::size_t open = text.find('{', metrics_at);
    const std::size_t close = text.find('}', open);
    if (open == std::string::npos || close == std::string::npos)
        return metrics;

    std::size_t pos = open;
    while (pos < close) {
        const std::size_t key_begin = text.find('"', pos + 1);
        if (key_begin == std::string::npos || key_begin >= close)
            break;
        const std::size_t key_end = text.find('"', key_begin + 1);
        const std::size_t colon = text.find(':', key_end);
        if (key_end == std::string::npos || colon == std::string::npos ||
            colon >= close) {
            break;
        }
        const std::string key =
            text.substr(key_begin + 1, key_end - key_begin - 1);
        metrics[key] = std::stod(text.substr(colon + 1));
        pos = text.find(',', colon);
        if (pos == std::string::npos || pos > close)
            break;
    }
    return metrics;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t events = 2'000'000;
    unsigned pe_pairs = 64;
    unsigned pe_dim = 128;
    std::uint64_t pe_iters = 2000;
    std::uint64_t pe_value_iters = 500;
    std::string baseline_path;

    FlagParser flags("hot-path microbenchmark: event kernel, PE item "
                     "flow, element-wise reduction");
    flags.addUint64("events", events, "one-shot events per queue bench");
    flags.addUnsigned("pe-pairs", pe_pairs,
                      "reducible query pairs per PE input side");
    flags.addUnsigned("pe-dim", pe_dim,
                      "embedding elements per value vector");
    flags.addUint64("pe-iters", pe_iters,
                    "header-only PE processing iterations");
    flags.addUint64("pe-value-iters", pe_value_iters,
                    "value-carrying PE processing iterations");
    flags.addString("baseline", baseline_path,
                    "earlier BENCH_hotpath.json to compute speedups "
                    "against");
    telemetry::TelemetrySession session("micro_hotpath");
    session.registerFlags(flags);
    flags.parse(argc, argv);
    session.defaultReportPath("BENCH_hotpath.json");
    session.start();

    session.report().setConfig("events", events);
    session.report().setConfig("pePairs", std::uint64_t(pe_pairs));
    session.report().setConfig("peDim", std::uint64_t(pe_dim));
    session.report().setConfig("peIters", pe_iters);
    session.report().setConfig("peValueIters", pe_value_iters);

    const double burst =
        bestOf(3, [&] { return benchEventBurst(events, 512); });
    const double chain =
        bestOf(3, [&] { return benchEventChain(events / 4); });
    const PeRates header =
        bestOf(3, [&] { return benchPe(pe_pairs, pe_dim, false, pe_iters); });
    const PeRates value = bestOf(
        3, [&] { return benchPe(pe_pairs, pe_dim, true, pe_value_iters); });
    // Transport codec: 16k vectors x pe_dim floats streamed per pass
    // (8 MB at dim=128 — past LLC, the leaf path's regime).
    const QuantRates quant =
        bestOf(3, [&] { return benchQuant(pe_dim, 16384, 12); });
    session.report().setConfig("quantBackend",
                               std::string(
                                   embedding::quantizeKernelBackend()));
    // Row generation alone: one row buffer, which stays in L1.
    const double fill = bestOf(3, [&] { return benchStoreFill(4096, 64); });

    // Event replay on a fixed set of batches, prepared once (about a
    // tenth of a second per run, so the smoke run keeps it).
    const embedding::TableConfig tables{32, 1u << 20, 512, 4};
    std::vector<PreparedBatch> replay_batches;
    {
        EventQueue eq;
        const dram::MemorySystem memory = replayMemory(eq);
        const embedding::VectorLayout layout(tables, memory.mapper());
        embedding::WorkloadConfig wc;
        wc.tables = tables;
        wc.batchSize = 32;
        wc.querySize = 24;
        wc.popularity = embedding::Popularity::Uniform;
        embedding::BatchGenerator gen(wc, 1);
        for (int b = 0; b < 64; ++b)
            replay_batches.push_back(
                prepareBatch(layout, nullptr, gen.next(), true));
    }
    const double replay = bestOf(
        3, [&] { return benchEventReplay(tables, replay_batches); });

    // The same event kernels with a flight recorder installed
    // (informational): pins what the always-on rings cost when a run
    // actually records, next to the disabled-guard rates above. Under
    // FAFNIR_FLIGHTREC_COMPILED_OUT the guard constant-folds away and
    // these equal the plain rates.
    double burst_rec = 0.0;
    double chain_rec = 0.0;
    {
        telemetry::FlightRecorder recorder;
        telemetry::ScopedContext install({.recorder = &recorder});
        burst_rec = bestOf(3, [&] { return benchEventBurst(events, 512); });
        chain_rec = bestOf(3, [&] { return benchEventChain(events / 4); });
    }

    struct Metric
    {
        const char *name;
        double value;
    };
    const std::vector<Metric> metrics = {
        {"eventq_burst_events_per_sec", burst},
        {"eventq_chain_events_per_sec", chain},
        {"eventq_burst_flightrec_on_events_per_sec", burst_rec},
        {"eventq_chain_flightrec_on_events_per_sec", chain_rec},
        {"pe_header_items_per_sec", header.itemsPerSec},
        {"pe_value_items_per_sec", value.itemsPerSec},
        {"reduced_elements_per_sec", value.reducedElementsPerSec},
        {"fp32_copy_bytes_per_sec", quant.copyBytesPerSec},
        {"store_fill_bytes_per_sec", fill},
        {"int8_quant_bytes_per_sec", quant.quantBytesPerSec},
        {"int8_dequant_bytes_per_sec", quant.dequantBytesPerSec},
        {"event_replay_batches_per_sec", replay},
    };

    std::map<std::string, double> baseline;
    if (!baseline_path.empty())
        baseline = loadBaselineMetrics(baseline_path);

    TextTable table("Hot-path microbenchmark (rates in ops/sec)");
    if (baseline.empty())
        table.setHeader({"metric", "rate"});
    else
        table.setHeader({"metric", "rate", "baseline", "speedup"});
    for (const Metric &m : metrics) {
        session.report().setMetric(m.name, m.value);
        if (baseline.empty()) {
            table.row(m.name, TextTable::num(m.value, 0));
            continue;
        }
        const auto it = baseline.find(m.name);
        const double base = it == baseline.end() ? 0.0 : it->second;
        const double speedup = base > 0.0 ? m.value / base : 0.0;
        table.row(m.name, TextTable::num(m.value, 0),
                  TextTable::num(base, 0),
                  TextTable::num(speedup, 2) + "x");
        if (base > 0.0) {
            session.report().setMetric(std::string("speedup_") + m.name,
                                       speedup);
        }
    }
    table.print(std::cout);

    return session.finish();
}
