/**
 * @file
 * Flight-recorder rings and debug-bundle serialization.
 */

#include "flightrec.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/faultinject.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "telemetry/attribution.hh"
#include "telemetry/report.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"

namespace fafnir::telemetry
{

const char *
toString(Stage stage)
{
    switch (stage) {
      case Stage::EventqDispatch: return "eventq_dispatch";
      case Stage::DramService: return "dram_service";
      case Stage::PeMeeting: return "pe_meeting";
      case Stage::Prepare: return "prepare";
      case Stage::Dispatch: return "dispatch";
      case Stage::Writeback: return "writeback";
      case Stage::ShardCombine: return "shard_combine";
      case Stage::NumStages: break;
    }
    return "?";
}

const char *
toString(Trigger trigger)
{
    switch (trigger) {
      case Trigger::SloAlert: return "slo_alert";
      case Trigger::DeadlineMiss: return "deadline_miss";
      case Trigger::RetryExhausted: return "retry_exhausted";
      case Trigger::FaultHook: return "fault_hook";
      case Trigger::ValueMismatch: return "value_mismatch";
      case Trigger::TailLatency: return "tail_latency";
      case Trigger::NumTriggers: break;
    }
    return "?";
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config))
{
    if (config_.ringCapacity == 0)
        config_.ringCapacity = 1;
    for (Ring &r : rings_)
        r.slots.reserve(config_.ringCapacity);
}

void
FlightRecorder::record(Stage stage, Tick tick, std::uint32_t code,
                       std::uint64_t a, std::uint64_t b)
{
    Ring &r = rings_[static_cast<std::size_t>(stage)];
    const FlightRecord rec{tick, code, a, b};
    if (r.slots.size() < config_.ringCapacity) {
        r.slots.push_back(rec);
    } else {
        r.slots[r.next] = rec;
        r.next = (r.next + 1) % config_.ringCapacity;
    }
    ++r.recorded;
    if (tick > lastSeenTick_)
        lastSeenTick_ = tick;
}

bool
FlightRecorder::trigger(Trigger kind, Tick tick,
                        const std::string &detail,
                        const QueryAttribution *offender)
{
    const std::size_t k = static_cast<std::size_t>(kind);
    ++triggerCounts_[k];
    if (sequence_ >= config_.maxBundles) {
        ++suppressed_;
        return false;
    }
    if (acceptedAny_[k] && tick >= lastAccepted_[k] &&
        tick - lastAccepted_[k] < config_.minGapTicks) {
        ++suppressed_;
        return false;
    }
    lastAccepted_[k] = tick;
    acceptedAny_[k] = true;
    const std::uint64_t seq = sequence_++;
    if (config_.bundleDir.empty())
        return true;

    std::error_code ec;
    std::filesystem::create_directories(config_.bundleDir, ec);
    char name[64];
    std::snprintf(name, sizeof name, "bundle_%03" PRIu64 "_%s.json", seq,
                  toString(kind));
    const std::string path =
        (std::filesystem::path(config_.bundleDir) / name).string();
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        FAFNIR_WARN("flightrec: cannot write debug bundle ", path);
        return true;
    }
    writeBundle(os, kind, tick, detail, offender, seq);
    os << '\n';
    bundlePaths_.push_back(path);
    return true;
}

void
FlightRecorder::setContext(const std::string &key,
                           const std::string &value)
{
    for (auto &kv : context_) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    context_.emplace_back(key, value);
}

namespace
{

void
writeOffender(JsonWriter &json, const QueryAttribution &q)
{
    json.beginObject();
    json.member("batch", q.batch);
    json.member("query", q.query);
    json.member("issued", static_cast<std::uint64_t>(q.issued));
    json.member("complete", static_cast<std::uint64_t>(q.complete));
    json.member("total_ticks", static_cast<std::uint64_t>(q.total()));
    json.member("component_sum_ticks",
                static_cast<std::uint64_t>(q.componentSum()));
    json.member("critical_rank", q.criticalRank);
    json.member("hops", q.hops);
    json.member("flow", q.flow);
    json.key("components");
    json.beginObject();
    json.member("batch_prepare", static_cast<std::uint64_t>(q.batchPrepare));
    json.member("dispatch_queue",
                static_cast<std::uint64_t>(q.dispatchQueue));
    json.member("dram_service", static_cast<std::uint64_t>(q.dramService));
    json.member("ctrl_queue", static_cast<std::uint64_t>(q.ctrlQueue));
    json.member("pe_compute", static_cast<std::uint64_t>(q.peCompute));
    json.member("forward_wait", static_cast<std::uint64_t>(q.forwardWait));
    json.member("service_queue",
                static_cast<std::uint64_t>(q.serviceQueue));
    json.member("shard_combine",
                static_cast<std::uint64_t>(q.shardCombine));
    json.endObject();
    json.endObject();
}

void
writeFaults(JsonWriter &json, const fault::FaultPlan &plan)
{
    json.beginObject();
    json.member("spec", plan.describe());
    json.member("seed", plan.seed());
    json.member("suspended", plan.suspended());
    json.member("total_checked", plan.totalChecked());
    json.member("total_fired", plan.totalFired());
    json.key("hooks");
    json.beginObject();
    for (std::size_t h = 0; h < fault::kNumHooks; ++h) {
        const auto hook = static_cast<fault::Hook>(h);
        if (!plan.enabled(hook))
            continue;
        json.key(fault::toString(hook));
        json.beginObject();
        json.member("checked", plan.checkedCount(hook));
        json.member("fired", plan.firedCount(hook));
        json.endObject();
    }
    json.endObject();
    json.endObject();
}

void
writeSlo(JsonWriter &json, const SloMonitor &monitor)
{
    json.beginObject();
    json.key("objectives");
    json.beginArray();
    for (std::size_t i = 0; i < monitor.objectives().size(); ++i) {
        json.beginObject();
        json.member("name", monitor.objectives()[i].name);
        json.member("active", monitor.active(i));
        json.member("fires", monitor.fires(i));
        json.member("clears", monitor.clears(i));
        json.member("budget_consumed", monitor.budgetConsumed(i));
        json.endObject();
    }
    json.endArray();
    json.member("total_fires", monitor.totalFires());
    json.member("total_clears", monitor.totalClears());
    json.endObject();
}

/** Rolling span the bundle snapshots per windowed metric (matches the
 *  health scoreboard's recent-history view). */
constexpr std::size_t kBundleRollingWindows = 8;

void
writeWindows(JsonWriter &json, const TimeSeries &ts)
{
    json.beginObject();
    json.member("window_ticks",
                static_cast<std::uint64_t>(ts.windowTicks()));
    json.member("last_tick", static_cast<std::uint64_t>(ts.lastTick()));
    json.member("late_drops", ts.lateDrops());
    json.key("metrics");
    json.beginObject();
    ts.visit([&json](const std::string &name, const WindowedCounter *c,
                     const WindowedHistogram *h) {
        json.key(name);
        json.beginObject();
        if (c != nullptr) {
            json.member("kind", "counter");
            json.member("total", c->total());
            json.member("rolling_count",
                        c->rollingSum(kBundleRollingWindows));
            json.member("rolling_rate_per_sec",
                        c->rollingRatePerSec(kBundleRollingWindows));
        } else if (h != nullptr) {
            json.member("kind", "histogram");
            json.member("total", h->total());
            const LogHistogram merged =
                h->rolling(kBundleRollingWindows);
            json.member("rolling_count", merged.count());
            json.member("rolling_p50", merged.p50());
            json.member("rolling_p95", merged.p95());
            json.member("rolling_p99", merged.p99());
        }
        json.endObject();
    });
    json.endObject();
    json.endObject();
}

} // namespace

void
FlightRecorder::writeBundle(std::ostream &os, Trigger kind, Tick tick,
                            const std::string &detail,
                            const QueryAttribution *offender,
                            std::uint64_t sequence) const
{
    JsonWriter json(os);
    json.beginObject();
    json.member("schemaVersion", kArtifactSchemaVersion);
    json.member("kind", "debug-bundle");
    json.key("trigger");
    json.beginObject();
    json.member("kind", toString(kind));
    json.member("tick", static_cast<std::uint64_t>(tick));
    json.member("detail", detail);
    json.member("sequence", sequence);
    json.endObject();
    json.key("context");
    json.beginObject();
    for (const auto &kv : context_)
        json.member(kv.first, kv.second);
    json.endObject();
    json.key("offender");
    if (offender != nullptr)
        writeOffender(json, *offender);
    else
        json.null();
    json.key("faults");
    if (const fault::FaultPlan *p = fault::plan())
        writeFaults(json, *p);
    else
        json.null();
    json.key("slo");
    if (const SloMonitor *m = sloMonitor())
        writeSlo(json, *m);
    else
        json.null();
    json.key("windows");
    if (const TimeSeries *ts = timeseries())
        writeWindows(json, *ts);
    else
        json.null();
    json.key("rings");
    json.beginObject();
    for (std::size_t s = 0; s < kNumStages; ++s) {
        const auto stage = static_cast<Stage>(s);
        json.key(toString(stage));
        json.beginObject();
        json.member("capacity",
                    static_cast<std::uint64_t>(config_.ringCapacity));
        json.member("recorded", recordedCount(stage));
        json.member("dropped", droppedCount(stage));
        json.key("records");
        json.beginArray();
        const std::size_t n = ringSize(stage);
        for (std::size_t i = 0; i < n; ++i) {
            const FlightRecord &rec = ringRecord(stage, i);
            json.beginObject();
            json.member("tick", static_cast<std::uint64_t>(rec.tick));
            json.member("code", rec.code);
            json.member("a", rec.a);
            json.member("b", rec.b);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endObject();
    json.endObject();
}

std::uint64_t
FlightRecorder::recordedCount(Stage stage) const
{
    return ring(stage).recorded;
}

std::uint64_t
FlightRecorder::droppedCount(Stage stage) const
{
    const Ring &r = ring(stage);
    return r.recorded > r.slots.size() ? r.recorded - r.slots.size() : 0;
}

std::uint64_t
FlightRecorder::totalRecorded() const
{
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kNumStages; ++s)
        total += recordedCount(static_cast<Stage>(s));
    return total;
}

std::uint64_t
FlightRecorder::totalDropped() const
{
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kNumStages; ++s)
        total += droppedCount(static_cast<Stage>(s));
    return total;
}

std::size_t
FlightRecorder::ringSize(Stage stage) const
{
    return ring(stage).slots.size();
}

const FlightRecord &
FlightRecorder::ringRecord(Stage stage, std::size_t i) const
{
    const Ring &r = ring(stage);
    FAFNIR_ASSERT(i < r.slots.size(), "ring record index out of range");
    const std::size_t base =
        r.slots.size() < config_.ringCapacity ? 0 : r.next;
    return r.slots[(base + i) % r.slots.size()];
}

std::uint64_t
FlightRecorder::triggerCount(Trigger kind) const
{
    return triggerCounts_[static_cast<std::size_t>(kind)];
}

std::uint64_t
FlightRecorder::totalTriggers() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t c : triggerCounts_)
        total += c;
    return total;
}

void
FlightRecorder::registerStats(StatGroup &group) const
{
    for (std::size_t s = 0; s < kNumStages; ++s) {
        const auto stage = static_cast<Stage>(s);
        const std::string base = toString(stage);
        group.addFormula(
            base + ".recorded",
            [this, stage] {
                return static_cast<double>(recordedCount(stage));
            },
            "flight records pushed");
        group.addFormula(
            base + ".dropped",
            [this, stage] {
                return static_cast<double>(droppedCount(stage));
            },
            "flight records overwritten unseen");
    }
    group.addFormula(
        "triggers", [this] { return static_cast<double>(totalTriggers()); },
        "trigger conditions observed");
    group.addFormula(
        "suppressed",
        [this] { return static_cast<double>(suppressedCount()); },
        "captures suppressed by rate limit / cap");
    group.addFormula(
        "bundles", [this] { return static_cast<double>(bundlesWritten()); },
        "debug bundles written");
}

} // namespace fafnir::telemetry
