/**
 * @file
 * Implementation of the statistics package.
 */

#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <tuple>

#include "json.hh"

namespace fafnir
{

// --- LogHistogram -----------------------------------------------------

double
LogHistogram::bucketValue(std::size_t index)
{
    if (index == 0)
        return 0.0;
    if (index >= kBucketCount - 1)
        return std::ldexp(1.0, kMaxExp);
    const std::size_t linear = index - 1;
    const int exp =
        kMinExp + static_cast<int>(linear / kSubBuckets);
    const unsigned sub = static_cast<unsigned>(linear % kSubBuckets);
    // Upper edge of sub-bucket `sub` of octave [2^(exp-1), 2^exp).
    return std::ldexp(1.0 + (sub + 1) / double(kSubBuckets), exp - 1);
}

void
LogHistogram::recordWithExemplar(double v, const Exemplar &ex)
{
    record(v);
    Exemplar candidate = ex;
    candidate.value = v;
    candidate.valid = true;
    offerExemplar(bucketOf(v), candidate);
}

void
LogHistogram::offerExemplar(std::size_t bucket, const Exemplar &ex)
{
    if (!ex.valid)
        return;
    if (exemplar_.valid) {
        // Total order so retention is merge-order independent: higher
        // bucket wins; within a bucket the earliest (tick, batch,
        // query, value) tuple wins.
        if (bucket < exemplarBucket_)
            return;
        if (bucket == exemplarBucket_) {
            const auto keyOf = [](const Exemplar &e) {
                return std::make_tuple(e.tick, e.batch, e.query,
                                       e.value);
            };
            if (keyOf(exemplar_) <= keyOf(ex))
                return;
        }
    }
    exemplar_ = ex;
    exemplarBucket_ = bucket;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other.counts_.size() > counts_.size())
        counts_.resize(other.counts_.size(), 0);
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.exemplar_.valid)
        offerExemplar(other.exemplarBucket_, other.exemplar_);
}

double
LogHistogram::mean() const
{
    return count_ ? sum_ / double(count_)
                  : std::numeric_limits<double>::quiet_NaN();
}

double
LogHistogram::percentile(double p) const
{
    if (count_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    p = std::clamp(p, 0.0, 100.0);
    // Nearest rank: the k-th smallest with k = ceil(p/100 * n), k >= 1.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * double(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= rank)
            return bucketValue(i);
    }
    return bucketValue(counts_.empty() ? 0 : counts_.size() - 1);
}

std::uint64_t
LogHistogram::bucketCount(std::size_t index) const
{
    return index < counts_.size() ? counts_[index] : 0;
}

bool
LogHistogram::identicalBuckets(const LogHistogram &other) const
{
    const std::size_t n = std::max(counts_.size(), other.counts_.size());
    for (std::size_t i = 0; i < n; ++i)
        if (bucketCount(i) != other.bucketCount(i))
            return false;
    return count_ == other.count_;
}

void
LogHistogram::clear()
{
    counts_.clear();
    count_ = 0;
    sum_ = 0.0;
    exemplar_ = {};
    exemplarBucket_ = 0;
}

// --- Distribution -----------------------------------------------------

double
Distribution::min() const
{
    return count() ? min_ : std::numeric_limits<double>::quiet_NaN();
}

double
Distribution::max() const
{
    return count() ? max_ : std::numeric_limits<double>::quiet_NaN();
}

double
Distribution::percentile(double p) const
{
    if (count() == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return std::min(std::max(hist_.percentile(p), min_), max_);
}

// --- StatGroup --------------------------------------------------------

void
StatGroup::addCounter(const std::string &stat, const Counter &counter,
                      const std::string &desc)
{
    Entry entry{stat, Kind::Counter, &counter, nullptr, {}, desc};
    entries_.push_back(std::move(entry));
}

void
StatGroup::addDistribution(const std::string &stat, const Distribution &dist,
                           const std::string &desc)
{
    Entry entry{stat, Kind::Distribution, nullptr, &dist, {}, desc};
    entries_.push_back(std::move(entry));
}

void
StatGroup::addFormula(const std::string &stat, std::function<double()> fn,
                      const std::string &desc)
{
    Entry entry{stat, Kind::Formula, nullptr, nullptr, std::move(fn),
                desc};
    entries_.push_back(std::move(entry));
}

namespace
{

std::string
renderDistribution(const Distribution &dist)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2);
    if (dist.count() == 0) {
        os << "- (n=0)";
        return os.str();
    }
    os << dist.mean() << " (n=" << dist.count() << ", min=" << dist.min()
       << ", max=" << dist.max() << ", p50=" << dist.p50()
       << ", p95=" << dist.p95() << ", p99=" << dist.p99() << ")";
    return os.str();
}

std::string
renderFormula(double v)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(4) << v;
    return os.str();
}

} // namespace

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &entry : entries_) {
        os << name_ << '.' << entry.name << ' ';
        switch (entry.kind) {
          case Kind::Counter:
            os << entry.counter->value();
            break;
          case Kind::Distribution:
            os << renderDistribution(*entry.dist);
            break;
          case Kind::Formula:
            os << renderFormula(entry.formula());
            break;
        }
        if (!entry.desc.empty())
            os << " # " << entry.desc;
        os << '\n';
    }
}

void
StatGroup::writeJson(JsonWriter &json) const
{
    json.beginObject();
    for (const auto &entry : entries_) {
        json.key(entry.name);
        switch (entry.kind) {
          case Kind::Counter:
            json.value(entry.counter->value());
            break;
          case Kind::Distribution: {
            const Distribution &d = *entry.dist;
            json.beginObject();
            json.member("count", d.count());
            json.member("mean", d.mean());
            json.member("min", d.min()); // NaN -> null when empty
            json.member("max", d.max());
            json.member("sum", d.sum());
            json.member("p50", d.p50());
            json.member("p95", d.p95());
            json.member("p99", d.p99());
            json.endObject();
            break;
          }
          case Kind::Formula:
            json.value(entry.formula());
            break;
        }
    }
    json.endObject();
}

void
StatGroup::writeCsv(std::ostream &os) const
{
    auto row = [&](const std::string &stat, double v) {
        os << name_ << '.' << stat << ',';
        if (std::isfinite(v))
            os << v;
        os << '\n';
    };
    for (const auto &entry : entries_) {
        switch (entry.kind) {
          case Kind::Counter:
            os << name_ << '.' << entry.name << ','
               << entry.counter->value() << '\n';
            break;
          case Kind::Distribution: {
            const Distribution &d = *entry.dist;
            os << name_ << '.' << entry.name << ".count," << d.count()
               << '\n';
            row(entry.name + ".mean", d.mean());
            row(entry.name + ".min", d.min());
            row(entry.name + ".max", d.max());
            row(entry.name + ".p50", d.p50());
            row(entry.name + ".p95", d.p95());
            row(entry.name + ".p99", d.p99());
            break;
          }
          case Kind::Formula:
            row(entry.name, entry.formula());
            break;
        }
    }
}

StatRegistry &
StatRegistry::instance()
{
    static StatRegistry registry;
    return registry;
}

StatGroup &
StatRegistry::group(const std::string &name)
{
    for (const auto &g : groups_) {
        if (g->name() == name)
            return *g;
    }
    groups_.push_back(std::make_unique<StatGroup>(name));
    return *groups_.back();
}

bool
StatRegistry::has(const std::string &name) const
{
    for (const auto &g : groups_) {
        if (g->name() == name)
            return true;
    }
    return false;
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &g : groups_)
        g->dump(os);
}

void
StatRegistry::writeJson(JsonWriter &json) const
{
    json.beginObject();
    for (const auto &g : groups_) {
        json.key(g->name());
        g->writeJson(json);
    }
    json.endObject();
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    JsonWriter json(os);
    writeJson(json);
    os << '\n';
}

void
StatRegistry::dumpCsv(std::ostream &os) const
{
    os << "stat,value\n";
    for (const auto &g : groups_)
        g->writeCsv(os);
}

} // namespace fafnir
