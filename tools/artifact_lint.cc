/**
 * @file
 * Schema lint for the repo's JSON artifacts.
 *
 * Four artifact kinds share the versioned schema contract
 * (telemetry/report.hh, kArtifactSchemaVersion): per-run reports
 * (--report), JSON-lines timelines (--timeline), flight-recorder
 * debug bundles (--debug-bundle-dir), and quantized-payload accuracy
 * reports (--payload-accuracy, written by fafnir_sim and
 * ablation_payload). CI pipes every artifact it produces through this
 * tool so a schema drift — a renamed key, a broken window sequence, an
 * attribution split that stopped telescoping, a payload byte counter
 * that went missing, a stats distribution whose percentiles leave
 * [min, max] — fails the build instead of silently breaking the
 * dashboards that consume them.
 *
 *   artifact_lint [--kind=report|timeline|bundle|accuracy] <path>...
 *
 * The kind is auto-detected from content when not forced. Exits
 * non-zero when any file violates its schema, printing one line per
 * violation.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/bench_diff_util.hh"

namespace
{

using benchdiff::JsonReader;
using benchdiff::JsonValue;

constexpr double kSchemaVersion = 1.0;

struct Lint
{
    const std::string &path;
    int violations = 0;

    explicit Lint(const std::string &p) : path(p) {}

    void
    fail(const std::string &why)
    {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), why.c_str());
        ++violations;
    }

    /** Require @p key of @p kind under @p v; nullptr when absent/wrong. */
    const JsonValue *
    require(const JsonValue &v, const char *key, JsonValue::Kind kind,
            const char *where)
    {
        const JsonValue *f = v.find(key);
        if (f == nullptr) {
            fail(std::string(where) + ": missing required key \"" + key +
                 "\"");
            return nullptr;
        }
        if (f->kind != kind) {
            fail(std::string(where) + ": key \"" + key +
                 "\" has the wrong type");
            return nullptr;
        }
        return f;
    }

    void
    checkSchemaVersion(const JsonValue &root, const char *key,
                       const char *where)
    {
        const JsonValue *v =
            require(root, key, JsonValue::Kind::Number, where);
        if (v != nullptr && v->number != kSchemaVersion)
            fail(std::string(where) + ": " + key + " is " +
                 std::to_string(v->number) + ", linter understands " +
                 std::to_string(kSchemaVersion));
    }

    /**
     * The telescoping invariant shared by exemplars and bundle
     * offenders: the disjoint stage components must sum exactly to the
     * declared total (see telemetry/attribution.hh).
     */
    void
    checkComponents(const JsonValue &owner, double total,
                    const char *where)
    {
        const JsonValue *comps = require(
            owner, "components", JsonValue::Kind::Object, where);
        if (comps == nullptr)
            return;
        double sum = 0.0;
        for (const auto &[name, v] : comps->object) {
            if (v.kind != JsonValue::Kind::Number ||
                v.number < 0.0) {
                fail(std::string(where) + ": component \"" + name +
                     "\" is not a non-negative number");
                return;
            }
            sum += v.number;
        }
        if (sum != total)
            fail(std::string(where) + ": components sum to " +
                 std::to_string(sum) + ", total_ticks is " +
                 std::to_string(total) + " (attribution must telescope)");
    }

    void
    checkExemplar(const JsonValue &ex, const char *where)
    {
        for (const char *key : {"value", "tick", "batch", "query",
                                "flow", "total_ticks"})
            require(ex, key, JsonValue::Kind::Number, where);
        const JsonValue *total = ex.find("total_ticks");
        if (total != nullptr &&
            total->kind == JsonValue::Kind::Number)
            checkComponents(ex, total->number, where);
    }

    /** A transport payload format name (embedding/quantize.hh). */
    void
    checkPayloadName(const JsonValue &owner, const char *key,
                     const char *where)
    {
        const JsonValue *fmt =
            require(owner, key, JsonValue::Kind::String, where);
        if (fmt != nullptr && fmt->text != "fp32" &&
            fmt->text != "int8" && fmt->text != "twobit")
            fail(std::string(where) + ": unknown payload format \"" +
                 fmt->text + "\"");
    }

    /** Non-negative number at @p key; returns it (NaN when absent). */
    double
    checkNonNegative(const JsonValue &owner, const char *key,
                     const char *where)
    {
        const JsonValue *v =
            require(owner, key, JsonValue::Kind::Number, where);
        if (v == nullptr)
            return std::nan("");
        if (v->number < 0.0)
            fail(std::string(where) + ": \"" + key +
                 "\" is negative");
        return v->number;
    }

    /**
     * The error-stat triple every accuracy record carries. Telescopes
     * by construction: a mean of |error| can never exceed the max, and
     * an all-zero error stream (the fp32 exact path) zeroes all three.
     */
    void
    checkErrorStats(const JsonValue &owner, bool exact,
                    const char *where)
    {
        const double max_abs =
            checkNonNegative(owner, "maxAbsError", where);
        const double mean_abs =
            checkNonNegative(owner, "meanAbsError", where);
        const double rel_l2 =
            checkNonNegative(owner, "relativeL2", where);
        if (mean_abs > max_abs)
            fail(std::string(where) +
                 ": meanAbsError exceeds maxAbsError");
        if (exact && (max_abs != 0.0 || mean_abs != 0.0 ||
                      rel_l2 != 0.0))
            fail(std::string(where) +
                 ": fp32 is the exact path, error stats must be zero");
    }
};

// --- report ----------------------------------------------------------

/**
 * The distributions in a report's embedded stats (the objects inside
 * each group, see StatGroup::writeJson): all bounds and percentiles are
 * null when count is 0, and otherwise min <= p50 <= p95 <= p99 <= max,
 * since Distribution clamps its percentiles into [min, max].
 */
void
lintDistributions(Lint &lint, const JsonValue &stats)
{
    for (const auto &[group, members] : stats.object) {
        for (const auto &[name, dist] : members.object) {
            if (dist.kind != JsonValue::Kind::Object)
                continue; // a counter or a formula
            const std::string where = "report stats " + group + "." + name;
            const JsonValue *count = lint.require(
                dist, "count", JsonValue::Kind::Number, where.c_str());
            if (count == nullptr)
                continue;
            const auto kind = count->number == 0.0 ? JsonValue::Kind::Null
                                                   : JsonValue::Kind::Number;
            const JsonValue *prev = nullptr;
            for (const char *key : {"min", "p50", "p95", "p99", "max"}) {
                const JsonValue *v =
                    lint.require(dist, key, kind, where.c_str());
                if (v != nullptr && prev != nullptr &&
                    v->number < prev->number)
                    lint.fail(where + ": " + key + " " +
                              std::to_string(v->number) +
                              " breaks min <= p50 <= p95 <= p99 <= max");
                prev = v;
            }
        }
    }
}

void
lintReport(Lint &lint, const JsonValue &root)
{
    lint.checkSchemaVersion(root, "schemaVersion", "report");
    lint.require(root, "tool", JsonValue::Kind::String, "report");
    const JsonValue *config = lint.require(
        root, "config", JsonValue::Kind::Object, "report");
    const JsonValue *metrics = lint.require(
        root, "metrics", JsonValue::Kind::Object, "report");
    if (metrics != nullptr) {
        for (const auto &[name, v] : metrics->object) {
            if (v.kind != JsonValue::Kind::Number &&
                v.kind != JsonValue::Kind::Null)
                lint.fail("report: metric \"" + name +
                          "\" is not a number");
        }
    }
    if (const JsonValue *stats = root.find("stats"))
        lintDistributions(lint, *stats);

    // Quantized-transport annotations. The config payload name must be
    // a known format, and the byte/energy counters travel as a group:
    // a report with one of them must carry all of them (a dashboard
    // that plots bytes-per-energy breaks silently otherwise).
    const JsonValue *payload =
        config != nullptr ? config->find("payload") : nullptr;
    if (payload != nullptr)
        lint.checkPayloadName(*config, "payload", "report config");
    if (metrics == nullptr)
        return;
    static const char *const kPayloadGroup[] = {
        "dramPayloadBytes", "linkPayloadBytes", "payloadCodecOps",
        "linkEnergyUj"};
    bool any = false;
    for (const char *key : kPayloadGroup)
        any = any || metrics->find(key) != nullptr;
    if (!any)
        return;
    for (const char *key : kPayloadGroup)
        lint.checkNonNegative(*metrics, key, "report metrics");
    // fp32 is the exact path: no meeting-logic codec work, and the
    // link energy telescopes to the pure byte term.
    const JsonValue *ops = metrics->find("payloadCodecOps");
    if (payload != nullptr && payload->kind == JsonValue::Kind::String &&
        payload->text == "fp32" && ops != nullptr &&
        ops->kind == JsonValue::Kind::Number && ops->number != 0.0)
        lint.fail("report metrics: payloadCodecOps must be 0 under the "
                  "fp32 exact path");
}

// --- payload accuracy ------------------------------------------------

/**
 * The --payload-accuracy artifact. Two shapes share the contract:
 * fafnir_sim writes one flat record for its single run, and
 * ablation_payload writes a "formats" sweep array plus the
 * error-feedback stream comparison.
 */
void
lintAccuracy(Lint &lint, const JsonValue &root)
{
    lint.checkSchemaVersion(root, "schemaVersion", "accuracy");
    lint.require(root, "tool", JsonValue::Kind::String, "accuracy");
    lint.require(root, "backend", JsonValue::Kind::String, "accuracy");

    const JsonValue *formats = root.find("formats");
    if (formats == nullptr) {
        // Flat shape (fafnir_sim).
        lint.checkPayloadName(root, "format", "accuracy");
        lint.checkNonNegative(root, "queries", "accuracy");
        lint.checkNonNegative(root, "payloadValueMismatches",
                              "accuracy");
        const JsonValue *fmt = root.find("format");
        const bool exact = fmt != nullptr &&
                           fmt->kind == JsonValue::Kind::String &&
                           fmt->text == "fp32";
        lint.checkErrorStats(root, exact, "accuracy");
        return;
    }

    // Sweep shape (ablation_payload).
    if (formats->kind != JsonValue::Kind::Array) {
        lint.fail("accuracy: \"formats\" must be an array");
        return;
    }
    if (formats->array.empty())
        lint.fail("accuracy: \"formats\" is empty");
    for (std::size_t i = 0; i < formats->array.size(); ++i) {
        const std::string where =
            "accuracy formats[" + std::to_string(i) + "]";
        const JsonValue &entry = formats->array[i];
        if (entry.kind != JsonValue::Kind::Object) {
            lint.fail(where + ": not an object");
            continue;
        }
        lint.require(entry, "trace", JsonValue::Kind::String,
                     where.c_str());
        lint.checkPayloadName(entry, "format", where.c_str());
        const double dram =
            lint.checkNonNegative(entry, "dramBytes", where.c_str());
        const double link =
            lint.checkNonNegative(entry, "linkBytes", where.c_str());
        if (dram == 0.0 || link == 0.0)
            lint.fail(where + ": a swept point moved zero bytes");
        lint.checkNonNegative(entry, "valueMismatches", where.c_str());
        const JsonValue *fmt = entry.find("format");
        const bool exact = fmt != nullptr &&
                           fmt->kind == JsonValue::Kind::String &&
                           fmt->text == "fp32";
        lint.checkErrorStats(entry, exact, where.c_str());
    }

    const JsonValue *ef = lint.require(
        root, "efTwoBit", JsonValue::Kind::Object, "accuracy");
    if (ef != nullptr) {
        const double rounds =
            lint.checkNonNegative(*ef, "rounds", "accuracy efTwoBit");
        if (rounds == 0.0)
            lint.fail("accuracy efTwoBit: rounds must be positive");
        lint.checkNonNegative(*ef, "statelessMeanAbsError",
                              "accuracy efTwoBit");
        lint.checkNonNegative(*ef, "efMeanAbsError",
                              "accuracy efTwoBit");
        lint.checkNonNegative(*ef, "improvement", "accuracy efTwoBit");
    }
}

// --- timeline --------------------------------------------------------

void
lintTimeline(Lint &lint, const std::vector<std::string> &lines)
{
    if (lines.empty()) {
        lint.fail("timeline: empty artifact");
        return;
    }
    // Per-metric window close ticks must be strictly increasing: one
    // row per metric per closed window, in order.
    std::vector<std::pair<std::string, double>> lastTick;
    double lastRowTick = -1.0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string where = "timeline line " + std::to_string(i + 1);
        JsonValue row;
        try {
            row = JsonReader(lines[i]).parse();
        } catch (const std::exception &e) {
            lint.fail(where + ": " + e.what());
            continue;
        }
        const JsonValue *type = lint.require(
            row, "type", JsonValue::Kind::String, where.c_str());
        if (type == nullptr)
            continue;
        if (i == 0) {
            if (type->text != "meta") {
                lint.fail(where + ": first record must be the meta "
                                  "record, got \"" +
                          type->text + "\"");
                continue;
            }
            lint.checkSchemaVersion(row, "schema_version",
                                    where.c_str());
            continue;
        }
        if (type->text != "window" && type->text != "alert") {
            lint.fail(where + ": unknown record type \"" + type->text +
                      "\"");
            continue;
        }
        const JsonValue *tick = lint.require(
            row, "tick", JsonValue::Kind::Number, where.c_str());
        if (tick == nullptr)
            continue;
        if (tick->number < lastRowTick)
            lint.fail(where + ": rows are not in chronological order");
        lastRowTick = tick->number;
        if (type->text == "alert") {
            lint.require(row, "objective", JsonValue::Kind::String,
                         where.c_str());
            lint.require(row, "state", JsonValue::Kind::String,
                         where.c_str());
            continue;
        }
        const JsonValue *metric = lint.require(
            row, "metric", JsonValue::Kind::String, where.c_str());
        lint.require(row, "count", JsonValue::Kind::Number,
                     where.c_str());
        const JsonValue *kind = lint.require(
            row, "kind", JsonValue::Kind::String, where.c_str());
        if (kind != nullptr && kind->text != "counter" &&
            kind->text != "histogram")
            lint.fail(where + ": window kind must be counter or "
                              "histogram");
        if (metric != nullptr) {
            bool seen = false;
            for (auto &[name, t] : lastTick) {
                if (name != metric->text)
                    continue;
                seen = true;
                if (tick->number <= t)
                    lint.fail(where + ": window sequence for \"" +
                              metric->text +
                              "\" is not strictly increasing");
                t = tick->number;
            }
            if (!seen)
                lastTick.emplace_back(metric->text, tick->number);
        }
        if (const JsonValue *ex = row.find("exemplar"))
            lint.checkExemplar(*ex, (where + ": exemplar").c_str());
    }
}

// --- debug bundle ----------------------------------------------------

void
lintBundle(Lint &lint, const JsonValue &root)
{
    lint.checkSchemaVersion(root, "schemaVersion", "bundle");
    const JsonValue *kind = lint.require(
        root, "kind", JsonValue::Kind::String, "bundle");
    if (kind != nullptr && kind->text != "debug-bundle")
        lint.fail("bundle: kind must be \"debug-bundle\"");
    const JsonValue *trigger = lint.require(
        root, "trigger", JsonValue::Kind::Object, "bundle");
    if (trigger != nullptr) {
        lint.require(*trigger, "kind", JsonValue::Kind::String,
                     "bundle trigger");
        lint.require(*trigger, "tick", JsonValue::Kind::Number,
                     "bundle trigger");
        lint.require(*trigger, "detail", JsonValue::Kind::String,
                     "bundle trigger");
        lint.require(*trigger, "sequence", JsonValue::Kind::Number,
                     "bundle trigger");
    }
    lint.require(root, "context", JsonValue::Kind::Object, "bundle");

    const JsonValue *offender = root.find("offender");
    if (offender == nullptr) {
        lint.fail("bundle: missing required key \"offender\"");
    } else if (offender->kind == JsonValue::Kind::Object) {
        const JsonValue *total = lint.require(
            *offender, "total_ticks", JsonValue::Kind::Number,
            "bundle offender");
        const JsonValue *sum = lint.require(
            *offender, "component_sum_ticks", JsonValue::Kind::Number,
            "bundle offender");
        if (total != nullptr && sum != nullptr) {
            if (total->number != sum->number)
                lint.fail("bundle offender: total_ticks != "
                          "component_sum_ticks (attribution must "
                          "telescope)");
            lint.checkComponents(*offender, total->number,
                                 "bundle offender");
        }
    } else if (offender->kind != JsonValue::Kind::Null) {
        lint.fail("bundle: offender must be an object or null");
    }

    const JsonValue *rings = lint.require(
        root, "rings", JsonValue::Kind::Object, "bundle");
    if (rings == nullptr)
        return;
    for (const auto &[stage, ring] : rings->object) {
        const std::string where = "bundle ring \"" + stage + "\"";
        if (ring.kind != JsonValue::Kind::Object) {
            lint.fail(where + ": not an object");
            continue;
        }
        const JsonValue *capacity = lint.require(
            ring, "capacity", JsonValue::Kind::Number, where.c_str());
        const JsonValue *recorded = lint.require(
            ring, "recorded", JsonValue::Kind::Number, where.c_str());
        const JsonValue *dropped = lint.require(
            ring, "dropped", JsonValue::Kind::Number, where.c_str());
        const JsonValue *records = lint.require(
            ring, "records", JsonValue::Kind::Array, where.c_str());
        if (capacity == nullptr || recorded == nullptr ||
            dropped == nullptr || records == nullptr)
            continue;
        const double retained =
            static_cast<double>(records->array.size());
        if (retained > capacity->number)
            lint.fail(where + ": more records than capacity");
        if (recorded->number != dropped->number + retained)
            lint.fail(where + ": recorded != dropped + retained");
        for (const JsonValue &record : records->array) {
            if (record.kind != JsonValue::Kind::Object ||
                record.find("tick") == nullptr) {
                lint.fail(where + ": malformed record");
                break;
            }
        }
    }
}

// --- driver ----------------------------------------------------------

enum class Kind
{
    Auto,
    Report,
    Timeline,
    Bundle,
    Accuracy,
};

/** Whole-file parse succeeds -> single-object artifact; a trailing-
 *  character failure on a multi-line file -> JSON-lines timeline. */
Kind
detect(const std::string &text)
{
    try {
        const JsonValue root = JsonReader(text).parse();
        const JsonValue *kind = root.find("kind");
        if (kind != nullptr && kind->kind == JsonValue::Kind::String &&
            kind->text == "debug-bundle")
            return Kind::Bundle;
        const JsonValue *type = root.find("type");
        if (type != nullptr && type->kind == JsonValue::Kind::String &&
            type->text == "meta")
            return Kind::Timeline; // degenerate single-line timeline
        // Accuracy reports have no "metrics" object; they carry either
        // the sweep array or the flat per-run error stats.
        if (root.find("formats") != nullptr ||
            (root.find("payloadValueMismatches") != nullptr &&
             root.find("metrics") == nullptr))
            return Kind::Accuracy;
        return Kind::Report;
    } catch (const std::exception &) {
        return Kind::Timeline;
    }
}

int
lintFile(const std::string &path, Kind forced)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "%s: cannot read\n", path.c_str());
        return 1;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    Lint lint(path);
    const Kind kind = forced == Kind::Auto ? detect(text) : forced;
    try {
        switch (kind) {
          case Kind::Timeline: {
            std::vector<std::string> lines;
            std::istringstream ls(text);
            std::string line;
            while (std::getline(ls, line))
                if (!line.empty())
                    lines.push_back(line);
            lintTimeline(lint, lines);
            break;
          }
          case Kind::Report:
            lintReport(lint, JsonReader(text).parse());
            break;
          case Kind::Bundle:
            lintBundle(lint, JsonReader(text).parse());
            break;
          case Kind::Accuracy:
            lintAccuracy(lint, JsonReader(text).parse());
            break;
          case Kind::Auto:
            break;
        }
    } catch (const std::exception &e) {
        lint.fail(e.what());
    }
    if (lint.violations == 0)
        std::printf("%s: ok (%s)\n", path.c_str(),
                    kind == Kind::Timeline  ? "timeline"
                    : kind == Kind::Bundle  ? "bundle"
                    : kind == Kind::Accuracy ? "accuracy"
                                             : "report");
    return lint.violations;
}

} // namespace

int
main(int argc, char **argv)
{
    Kind forced = Kind::Auto;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--kind=", 0) == 0) {
            const std::string k = arg.substr(7);
            if (k == "report")
                forced = Kind::Report;
            else if (k == "timeline")
                forced = Kind::Timeline;
            else if (k == "bundle")
                forced = Kind::Bundle;
            else if (k == "accuracy")
                forced = Kind::Accuracy;
            else {
                std::fprintf(stderr, "unknown --kind=%s\n", k.c_str());
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: artifact_lint "
                        "[--kind=report|timeline|bundle|accuracy] <path>...\n");
            return 0;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        std::fprintf(stderr, "usage: artifact_lint "
                             "[--kind=report|timeline|bundle|accuracy] "
                             "<path>...\n");
        return 2;
    }
    int violations = 0;
    for (const std::string &path : paths)
        violations += lintFile(path, forced);
    return violations == 0 ? 0 : 1;
}
