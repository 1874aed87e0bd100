#include "telemetry/timeseries.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>

#include "common/stats.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir::telemetry
{

// --- WindowRing -------------------------------------------------------

namespace detail
{

WindowRing::WindowRing(Tick windowTicks, std::size_t retain)
    : windowTicks_(windowTicks ? windowTicks : 1),
      retain_(retain ? retain : 1)
{
}

} // namespace detail

// --- WindowedCounter --------------------------------------------------

WindowedCounter::WindowedCounter(Tick windowTicks, std::size_t retain)
    : WindowRing(windowTicks, retain), slots_(retain_, 0)
{
}

void
WindowedCounter::record(Tick tick, std::uint64_t n)
{
    const std::size_t s =
        slotFor(tick, [this](std::size_t i) { slots_[i] = 0; });
    if (s == static_cast<std::size_t>(-1))
        return;
    slots_[s] += n;
    total_ += n;
}

std::uint64_t
WindowedCounter::windowValue(std::uint64_t index) const
{
    if (empty() || index < oldestIndex() || index > newest_)
        return 0;
    return slots_[slot(index)];
}

std::uint64_t
WindowedCounter::rollingSum(std::size_t k) const
{
    if (empty() || k == 0)
        return 0;
    std::uint64_t sum = 0;
    const std::uint64_t oldest = oldestIndex();
    for (std::uint64_t i = newest_ + 1; i-- > oldest;) {
        sum += slots_[slot(i)];
        if (--k == 0)
            break;
    }
    return sum;
}

double
WindowedCounter::rollingRatePerSec(std::size_t k) const
{
    if (empty() || k == 0)
        return 0.0;
    k = std::min(k, windowCount());
    const double seconds =
        double(k) * double(windowTicks_) / double(kTicksPerSec);
    return seconds > 0.0 ? double(rollingSum(k)) / seconds : 0.0;
}

// --- WindowedHistogram ------------------------------------------------

WindowedHistogram::WindowedHistogram(Tick windowTicks, std::size_t retain)
    : WindowRing(windowTicks, retain), slots_(retain_)
{
}

void
WindowedHistogram::record(Tick tick, double v)
{
    const std::size_t s =
        slotFor(tick, [this](std::size_t i) { slots_[i].clear(); });
    if (s == static_cast<std::size_t>(-1))
        return;
    slots_[s].record(v);
    ++total_;
}

void
WindowedHistogram::record(Tick tick, double v, const Exemplar &ex)
{
    const std::size_t s =
        slotFor(tick, [this](std::size_t i) { slots_[i].clear(); });
    if (s == static_cast<std::size_t>(-1))
        return;
    slots_[s].recordWithExemplar(v, ex);
    ++total_;
}

const LogHistogram *
WindowedHistogram::window(std::uint64_t index) const
{
    if (empty() || index < oldestIndex() || index > newest_)
        return nullptr;
    return &slots_[slot(index)];
}

LogHistogram
WindowedHistogram::rolling(std::size_t k) const
{
    LogHistogram merged;
    if (empty() || k == 0)
        return merged;
    const std::uint64_t oldest = oldestIndex();
    for (std::uint64_t i = newest_ + 1; i-- > oldest;) {
        merged.merge(slots_[slot(i)]);
        if (--k == 0)
            break;
    }
    return merged;
}

double
WindowedHistogram::peakWindowPercentile(double p) const
{
    double peak = std::numeric_limits<double>::quiet_NaN();
    if (empty())
        return peak;
    const std::uint64_t oldest = oldestIndex();
    for (std::uint64_t i = oldest; i <= newest_; ++i) {
        const LogHistogram &h = slots_[slot(i)];
        if (h.count() == 0)
            continue;
        const double v = h.percentile(p);
        if (std::isnan(peak) || v > peak)
            peak = v;
    }
    return peak;
}

// --- TimeSeries -------------------------------------------------------

TimeSeries::TimeSeries(Config config) : config_(config)
{
    if (config_.windowTicks == 0)
        config_.windowTicks = 50 * kTicksPerUs;
    if (config_.retain == 0)
        config_.retain = 1;
}

TimeSeries::Entry *
TimeSeries::find(const std::string &name)
{
    for (auto &e : entries_)
        if (e->name == name)
            return e.get();
    return nullptr;
}

const TimeSeries::Entry *
TimeSeries::find(const std::string &name) const
{
    for (const auto &e : entries_)
        if (e->name == name)
            return e.get();
    return nullptr;
}

WindowedCounter &
TimeSeries::counter(const std::string &name, const std::string &desc)
{
    if (Entry *e = find(name); e && e->counter)
        return *e->counter;
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->desc = desc;
    entry->counter = std::make_unique<WindowedCounter>(
        config_.windowTicks, config_.retain);
    WindowedCounter &out = *entry->counter;
    entries_.push_back(std::move(entry));
    return out;
}

WindowedHistogram &
TimeSeries::histogram(const std::string &name, const std::string &desc)
{
    if (Entry *e = find(name); e && e->histogram)
        return *e->histogram;
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->desc = desc;
    entry->histogram = std::make_unique<WindowedHistogram>(
        config_.windowTicks, config_.retain);
    WindowedHistogram &out = *entry->histogram;
    entries_.push_back(std::move(entry));
    return out;
}

const WindowedCounter *
TimeSeries::findCounter(const std::string &name) const
{
    const Entry *e = find(name);
    return e ? e->counter.get() : nullptr;
}

const WindowedHistogram *
TimeSeries::findHistogram(const std::string &name) const
{
    const Entry *e = find(name);
    return e ? e->histogram.get() : nullptr;
}

void
TimeSeries::visit(
    const std::function<void(const std::string &, const WindowedCounter *,
                             const WindowedHistogram *)> &fn) const
{
    for (const auto &e : entries_)
        fn(e->name, e->counter.get(), e->histogram.get());
}

void
TimeSeries::flush(Tick end)
{
    lastTick_ = std::max(lastTick_, end);
}

std::uint64_t
TimeSeries::lateDrops() const
{
    std::uint64_t drops = 0;
    for (const auto &e : entries_) {
        if (e->counter)
            drops += e->counter->lateDrops();
        if (e->histogram)
            drops += e->histogram->lateDrops();
    }
    return drops;
}

namespace
{

/** JSON number or null for NaN (matches JsonWriter's convention). */
void
writeNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    os << buf;
}

/** The timeline/bundle-row JSON form of one exemplar. */
void
writeExemplar(std::ostream &os, const Exemplar &ex)
{
    os << "{\"value\":";
    writeNumber(os, ex.value);
    os << ",\"tick\":" << ex.tick << ",\"batch\":" << ex.batch
       << ",\"query\":" << ex.query << ",\"flow\":" << ex.flow
       << ",\"total_ticks\":" << ex.totalTicks << ",\"components\":{";
    for (std::size_t c = 0; c < kExemplarComponents; ++c) {
        if (c > 0)
            os << ',';
        os << '"' << kExemplarComponentNames[c]
           << "\":" << ex.components[c];
    }
    os << "}}";
}

} // namespace

void
TimeSeries::writeTimeline(std::ostream &os) const
{
    // Rows come out in (tick, metric registration order): walk windows
    // outermost so the artifact reads chronologically.
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    for (const auto &e : entries_) {
        const detail::WindowRing *ring =
            e->counter
                ? static_cast<const detail::WindowRing *>(
                      e->counter.get())
                : static_cast<const detail::WindowRing *>(
                      e->histogram.get());
        if (ring->empty())
            continue;
        lo = std::min(lo, ring->oldestIndex());
        hi = std::max(hi, ring->newestIndex());
    }
    if (lo > hi)
        return;
    for (std::uint64_t w = lo; w <= hi; ++w) {
        const Tick start = w * config_.windowTicks;
        for (const auto &e : entries_) {
            if (e->counter) {
                const WindowedCounter &c = *e->counter;
                if (c.empty() || w < c.oldestIndex() ||
                    w > c.newestIndex()) {
                    continue;
                }
                const std::uint64_t n = c.windowValue(w);
                os << "{\"type\":\"window\",\"tick\":" << start
                   << ",\"metric\":\"" << e->name
                   << "\",\"kind\":\"counter\",\"count\":" << n
                   << ",\"rate_per_sec\":";
                writeNumber(os, double(n) * double(kTicksPerSec) /
                                    double(config_.windowTicks));
                os << "}\n";
            } else if (e->histogram) {
                const WindowedHistogram &h = *e->histogram;
                const LogHistogram *win = h.window(w);
                if (win == nullptr)
                    continue;
                os << "{\"type\":\"window\",\"tick\":" << start
                   << ",\"metric\":\"" << e->name
                   << "\",\"kind\":\"histogram\",\"count\":"
                   << win->count() << ",\"p50\":";
                writeNumber(os, win->p50());
                os << ",\"p95\":";
                writeNumber(os, win->p95());
                os << ",\"p99\":";
                writeNumber(os, win->p99());
                if (win->hasExemplar()) {
                    os << ",\"exemplar\":";
                    writeExemplar(os, win->exemplar());
                }
                os << "}\n";
            }
        }
    }
}

void
TimeSeries::exportCounterTracks(TraceSink &sink) const
{
    for (const auto &e : entries_) {
        if (e->counter) {
            const WindowedCounter &c = *e->counter;
            if (c.empty())
                continue;
            for (std::uint64_t w = c.oldestIndex();
                 w <= c.newestIndex(); ++w) {
                sink.counterEvent(kPidHarness, "win:" + e->name,
                                  w * config_.windowTicks,
                                  double(c.windowValue(w)));
            }
        } else if (e->histogram) {
            const WindowedHistogram &h = *e->histogram;
            if (h.empty())
                continue;
            for (std::uint64_t w = h.oldestIndex();
                 w <= h.newestIndex(); ++w) {
                const LogHistogram *win = h.window(w);
                if (win == nullptr || win->count() == 0)
                    continue;
                sink.counterEvent(kPidHarness, "win:" + e->name + ".p99",
                                  w * config_.windowTicks, win->p99());
            }
        }
    }
}

void
TimeSeries::registerStats(StatGroup &group) const
{
    for (const auto &e : entries_) {
        if (e->counter) {
            const WindowedCounter *c = e->counter.get();
            group.addFormula(
                e->name + ".total",
                [c] { return double(c->total()); },
                e->desc.empty() ? "windowed counter total" : e->desc);
            group.addFormula(
                e->name + ".lastWindowRatePerSec",
                [c] { return c->rollingRatePerSec(1); },
                "rate over the newest window");
        } else if (e->histogram) {
            const WindowedHistogram *h = e->histogram.get();
            group.addFormula(
                e->name + ".total",
                [h] { return double(h->total()); },
                e->desc.empty() ? "windowed histogram samples" : e->desc);
            group.addFormula(
                e->name + ".lastWindowP99",
                [h] { return h->rolling(1).p99(); },
                "p99 of the newest window (log-bucket upper edge)");
            group.addFormula(
                e->name + ".peakWindowP99",
                [h] { return h->peakWindowPercentile(99.0); },
                "worst per-window p99 across retained windows");
            // Fields of the tail exemplar of every retained window
            // merged; NaN when no sample carried one.
            const auto exemplarStat = [&](const char *field,
                                          double (*get)(const Exemplar &),
                                          const char *desc) {
                group.addFormula(
                    e->name + ".exemplar." + field,
                    [h, get] {
                        const LogHistogram all = h->overall();
                        return all.hasExemplar()
                            ? get(all.exemplar())
                            : std::numeric_limits<double>::quiet_NaN();
                    },
                    desc);
            };
            exemplarStat(
                "value", [](const Exemplar &x) { return x.value; },
                "tail exemplar's recorded value");
            exemplarStat(
                "query", [](const Exemplar &x) { return double(x.query); },
                "tail exemplar's in-batch query id");
            exemplarStat(
                "flow", [](const Exemplar &x) { return double(x.flow); },
                "tail exemplar's Perfetto flow id");
            exemplarStat(
                "totalTicks",
                [](const Exemplar &x) { return double(x.totalTicks); },
                "tail exemplar's end-to-end ticks");
            exemplarStat(
                "componentSumTicks",
                [](const Exemplar &x) { return double(x.componentSum()); },
                "tail exemplar's attribution sum (== totalTicks)");
        }
    }
    const TimeSeries *self = this;
    group.addFormula(
        "lateDrops", [self] { return double(self->lateDrops()); },
        "samples older than the retained window range (dropped)");
}

} // namespace fafnir::telemetry
