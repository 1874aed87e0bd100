/**
 * @file
 * The comparison machinery behind tools/bench_diff.cc, extracted so the
 * unit suite (tests/test_bench_diff.cc) can exercise the JSON reader,
 * metric-direction inference, override parsing, and report and
 * directory comparison without spawning the binary. Header-only;
 * everything lives in namespace benchdiff.
 */

#ifndef FAFNIR_TOOLS_BENCH_DIFF_UTIL_HH
#define FAFNIR_TOOLS_BENCH_DIFF_UTIL_HH

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace benchdiff
{

// --- A minimal JSON reader: just enough for report artifacts. ---------
// The repo's JsonWriter only emits objects/arrays/strings/numbers/bools,
// so that is all this accepts. Throws std::runtime_error on malformed
// input.

struct JsonValue
{
    enum class Kind
    {
        Null,
        Boolean,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }

    /** The member @p key; throws std::out_of_range when it is absent. */
    const JsonValue &
    at(const std::string &key) const
    {
        if (const JsonValue *v = find(key))
            return *v;
        throw std::out_of_range("missing JSON key " + key);
    }
};

class JsonReader
{
  public:
    explicit JsonReader(std::string text) : text_(std::move(text)) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("JSON error at byte " +
                                 std::to_string(pos_) + ": " + why);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        skipSpace();
        JsonValue v;
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            v.kind = JsonValue::Kind::String;
            v.text = parseString();
            return v;
        }
        if (literal("null"))
            return v;
        if (literal("true")) {
            v.kind = JsonValue::Kind::Boolean;
            v.boolean = true;
            return v;
        }
        if (literal("false")) {
            v.kind = JsonValue::Kind::Boolean;
            return v;
        }
        std::size_t end = pos_;
        while (end < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[end])) ||
                text_[end] == '-' || text_[end] == '+' ||
                text_[end] == '.' || text_[end] == 'e' ||
                text_[end] == 'E')) {
            ++end;
        }
        if (end == pos_)
            fail("expected a value");
        v.kind = JsonValue::Kind::Number;
        try {
            v.number = std::stod(text_.substr(pos_, end - pos_));
        } catch (const std::exception &) {
            fail("bad number");
        }
        pos_ = end;
        return v;
    }

    std::string
    parseString()
    {
        std::string out;
        if (!consume('"'))
            fail("expected a string");
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\' && pos_ < text_.size()) {
                const char esc = text_[pos_++];
                switch (esc) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'u':
                    out += "\\u";
                    continue;
                  default: c = esc; break;
                }
            }
            out += c;
        }
        if (!consume('"'))
            fail("unterminated string");
        return out;
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        consume('{');
        skipSpace();
        if (consume('}'))
            return v;
        do {
            skipSpace();
            std::string key = parseString();
            if (!consume(':'))
                fail("expected ':'");
            v.object.emplace_back(std::move(key), parseValue());
        } while (consume(','));
        if (!consume('}'))
            fail("expected '}'");
        return v;
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        consume('[');
        skipSpace();
        if (consume(']'))
            return v;
        do {
            v.array.push_back(parseValue());
        } while (consume(','));
        if (!consume(']'))
            fail("expected ']'");
        return v;
    }

    std::string text_;
    std::size_t pos_ = 0;
};

// --- Metric direction and comparison. ---------------------------------

enum class Direction
{
    HigherBetter,
    LowerBetter,
    Informational,
};

inline bool
containsWord(const std::string &name, const char *word)
{
    return name.find(word) != std::string::npos;
}

/** Infer which way a metric should move from its name. */
inline Direction
directionOf(const std::string &name)
{
    if (containsWord(name, "per_sec") || containsWord(name, "PerSec") ||
        containsWord(name, "speedup") || containsWord(name, "GBs") ||
        containsWord(name, "throughput") ||
        containsWord(name, "Utilization") ||
        containsWord(name, "goodput") || containsWord(name, "qps") ||
        containsWord(name, "saved")) {
        return Direction::HigherBetter;
    }
    if (containsWord(name, "Us") || containsWord(name, "Ns") ||
        containsWord(name, "latency") || containsWord(name, "Latency") ||
        containsWord(name, "Time") || containsWord(name, "Seconds")) {
        return Direction::LowerBetter;
    }
    return Direction::Informational;
}

inline const char *
toString(Direction d)
{
    switch (d) {
      case Direction::HigherBetter: return "higher";
      case Direction::LowerBetter: return "lower";
      case Direction::Informational: return "info";
    }
    return "?";
}

struct Comparison
{
    std::string file;
    std::string name;
    double baseline = 0.0;
    double current = 0.0;
    Direction direction = Direction::Informational;
    double tolerance = 0.0;
    bool regressed = false;
    /** The current report lacks the metric; the row fails the gate. */
    bool missing = false;

    /** Signed relative change; positive means "got better". */
    double
    improvement() const
    {
        if (baseline == 0.0)
            return 0.0;
        const double delta = (current - baseline) / baseline;
        return direction == Direction::LowerBetter ? -delta : delta;
    }
};

/** Flatten the "metrics" object of one report (missing → empty). */
inline std::map<std::string, double>
metricsOf(const JsonValue &root)
{
    std::map<std::string, double> out;
    const JsonValue *metrics = root.find("metrics");
    if (metrics == nullptr || metrics->kind != JsonValue::Kind::Object)
        return out;
    for (const auto &[name, v] : metrics->object) {
        if (v.kind == JsonValue::Kind::Number)
            out[name] = v.number;
    }
    return out;
}

inline JsonValue
loadJson(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream os;
    os << is.rdbuf();
    return JsonReader(os.str()).parse();
}

/**
 * Parse per-metric tolerance overrides. Both separators are accepted —
 * `name:tol` and `name=tol` — because CI YAML reads more naturally with
 * `=` while the original syntax used `:`.
 */
inline std::map<std::string, double>
parseOverrides(const std::string &spec)
{
    std::map<std::string, double> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string entry =
            spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        const std::size_t sep = entry.find_first_of(":=");
        if (sep == std::string::npos || sep == 0) {
            throw std::runtime_error("bad --metrics entry '" + entry +
                                     "' (want name:tolerance or "
                                     "name=tolerance)");
        }
        try {
            out[entry.substr(0, sep)] = std::stod(entry.substr(sep + 1));
        } catch (const std::exception &) {
            throw std::runtime_error("bad --metrics tolerance in '" +
                                     entry + "'");
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

/** Compare one baseline/current report pair into @p results. */
inline void
compareReports(const std::string &label, const JsonValue &baseline,
               const JsonValue &current, double tolerance,
               const std::map<std::string, double> &overrides,
               double inject_slowdown, std::vector<Comparison> &results)
{
    const auto base = metricsOf(baseline);
    auto cur = metricsOf(current);

    if (inject_slowdown > 0.0) {
        // Self-test: degrade the current side so the gate must trip.
        for (auto &[name, value] : cur) {
            switch (directionOf(name)) {
              case Direction::HigherBetter:
                value *= 1.0 - inject_slowdown;
                break;
              case Direction::LowerBetter:
                value *= 1.0 + inject_slowdown;
                break;
              case Direction::Informational:
                break;
            }
        }
    }

    for (const auto &[name, base_value] : base) {
        Comparison c;
        c.file = label;
        c.name = name;
        c.baseline = base_value;
        c.direction = directionOf(name);
        const auto ov = overrides.find(name);
        c.tolerance = ov != overrides.end() ? ov->second : tolerance;
        const auto it = cur.find(name);
        if (it == cur.end()) {
            // A bench that stops emitting a metric must not lose its
            // gate silently: the row fails until the baseline drops it.
            c.missing = true;
        } else {
            c.current = it->second;
            c.regressed = c.direction != Direction::Informational &&
                          c.improvement() < -c.tolerance;
        }
        results.push_back(c);
    }
}

/**
 * Directory mode: compare every *.json report in @p baseline_dir, in
 * name order, with the same-named report in @p current_dir. A report
 * the current directory lacks compares as one without metrics, so each
 * of its baseline metrics is a failing `missing` row: a bench that
 * stops writing its report must not lose its gates silently.
 */
inline void
compareDirectories(const std::string &baseline_dir,
                   const std::string &current_dir, double tolerance,
                   const std::map<std::string, double> &overrides,
                   double inject_slowdown, std::vector<Comparison> &results)
{
    namespace fs = std::filesystem;
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(baseline_dir)) {
        if (entry.path().extension() == ".json")
            names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    for (const std::string &name : names) {
        const fs::path cur = fs::path(current_dir) / name;
        compareReports(name,
                       loadJson((fs::path(baseline_dir) / name).string()),
                       fs::exists(cur) ? loadJson(cur.string()) : JsonValue{},
                       tolerance, overrides, inject_slowdown, results);
    }
}

} // namespace benchdiff

#endif // FAFNIR_TOOLS_BENCH_DIFF_UTIL_HH
