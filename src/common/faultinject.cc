/**
 * @file
 * FaultPlan implementation: spec parsing, per-hook streams, stats.
 */

#include "faultinject.hh"

#include <charconv>
#include <cstdlib>
#include <sstream>

#include "common/logging.hh"

namespace fafnir::fault
{

namespace
{

/**
 * Spec name, RNG stream id and default magnitude of each hook, indexed
 * by Hook. The stream ids are fixed (not the enum position), so adding
 * or removing a hook never moves another hook's (spec, seed) schedule;
 * ids 4 and 5 belonged to removed event-queue hooks and stay unused.
 */
struct HookInfo
{
    const char *name;
    std::uint64_t stream;
    double defaultMagnitude;
};

constexpr HookInfo kHookInfo[kNumHooks] = {
    {"dram_latency", 1, 32.0},     // 32x nominal read latency when fired
    {"dram_stall", 2, 200.0},      // 200 ns command stall
    {"event_delay", 3, 50.0},      // up to 50 ns delivery jitter
    {"pe_backpressure", 6, 8.0},   // 8 extra PE cycles per fired delivery
    {"pool_exhaust", 7, 0.0},      // no magnitude
    {"query_malformed", 8, 0.0},   // no magnitude
    {"query_oversized", 9, 8.0},   // 8x the nominal query width
    {"query_dup_index", 10, 0.0},  // no magnitude
};

/** Why a non-negative @p magnitude would leave a fired @p hook changing
 *  nothing, or nullptr when the hook injects a fault at that magnitude
 *  (each test mirrors the conversion at the hook's site). */
const char *
inertMagnitude(Hook hook, double magnitude)
{
    switch (hook) {
      case Hook::DramLatency:
        if (magnitude <= 1.0)
            return "is a latency multiplier of at most 1";
        return nullptr;
      case Hook::DramStall:
      case Hook::EventDelay:
        if (magnitude * static_cast<double>(kTicksPerNs) < 1.0)
            return "is under one tick (0.001 ns)";
        return nullptr;
      case Hook::PeBackpressure:
        if (magnitude < 1.0)
            return "is under one PE cycle";
        return nullptr;
      default:
        return nullptr;
    }
}

/** The shortest text that strtod reads back as exactly @p value. */
std::string
shortestText(double value)
{
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    FAFNIR_ASSERT(ec == std::errc(), "cannot format ", value);
    return std::string(buf, end);
}

/** splitmix64 step, used to derive independent per-hook seeds. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

const char *
toString(Hook hook)
{
    const auto i = static_cast<std::size_t>(hook);
    FAFNIR_ASSERT(i < kNumHooks, "invalid hook index ", i);
    return kHookInfo[i].name;
}

std::optional<Hook>
hookFromName(std::string_view name)
{
    for (std::size_t i = 0; i < kNumHooks; ++i) {
        if (name == kHookInfo[i].name)
            return static_cast<Hook>(i);
    }
    return std::nullopt;
}

FaultPlan::FaultPlan(std::uint64_t seed) : seed_(seed)
{
    // Expand the user seed into one independent stream per hook. The
    // double-mix decorrelates adjacent stream ids; enabling or checking
    // one hook never advances another hook's stream.
    for (std::size_t i = 0; i < kNumHooks; ++i) {
        hooks_[i].magnitude = kHookInfo[i].defaultMagnitude;
        hooks_[i].rng = Rng(mix(mix(seed) ^ kHookInfo[i].stream));
    }
}

std::optional<FaultPlan>
FaultPlan::tryParse(const std::string &spec, std::uint64_t seed,
                    std::string *error)
{
    const auto fail = [&](const std::string &message) {
        if (error != nullptr)
            *error = message;
        return std::nullopt;
    };

    FaultPlan plan(seed);
    std::stringstream entries(spec);
    std::string entry;
    while (std::getline(entries, entry, ',')) {
        if (entry.empty())
            return fail("empty fault entry in spec '" + spec + "'");

        std::stringstream fields(entry);
        std::string name, rate_text, magnitude_text;
        std::getline(fields, name, ':');
        if (!std::getline(fields, rate_text, ':'))
            return fail("fault entry '" + entry +
                        "' is missing a rate (want hook:rate[:magnitude])");
        std::getline(fields, magnitude_text, ':');

        const std::optional<Hook> hook = hookFromName(name);
        if (!hook.has_value()) {
            std::string known;
            for (std::size_t i = 0; i < kNumHooks; ++i) {
                if (!known.empty())
                    known += ", ";
                known += kHookInfo[i].name;
            }
            return fail("unknown fault hook '" + name + "' (one of: " +
                        known + ")");
        }

        char *end = nullptr;
        const double rate = std::strtod(rate_text.c_str(), &end);
        if (end == rate_text.c_str() || *end != '\0' || rate < 0.0 ||
            rate > 1.0) {
            return fail("fault rate '" + rate_text + "' for hook '" + name +
                        "' is not a probability in [0, 1]");
        }

        std::optional<double> magnitude;
        if (!magnitude_text.empty()) {
            end = nullptr;
            const double m = std::strtod(magnitude_text.c_str(), &end);
            if (end == magnitude_text.c_str() || *end != '\0' || m < 0.0) {
                return fail("fault magnitude '" + magnitude_text +
                            "' for hook '" + name +
                            "' is not a non-negative number");
            }
            if (const char *why = inertMagnitude(*hook, m)) {
                return fail("fault magnitude '" + magnitude_text +
                            "' for hook '" + name + "' " + why +
                            ", so the hook would inject nothing");
            }
            magnitude = m;
        }

        if (plan.enabled(*hook))
            return fail("fault hook '" + name + "' appears twice in spec");
        plan.enable(*hook, rate, magnitude);
    }

    if (!plan.anyEnabled())
        return fail("fault spec '" + spec + "' arms no hooks");
    return plan;
}

FaultPlan
FaultPlan::parse(const std::string &spec, std::uint64_t seed)
{
    std::string error;
    std::optional<FaultPlan> plan = tryParse(spec, seed, &error);
    if (!plan.has_value())
        FAFNIR_FATAL("bad --faults spec: ", error);
    return *std::move(plan);
}

void
FaultPlan::enable(Hook hook, double rate, std::optional<double> magnitude)
{
    FAFNIR_ASSERT(rate >= 0.0 && rate <= 1.0, "fault rate ", rate,
                  " out of [0, 1] for hook ", toString(hook));
    FAFNIR_ASSERT(!magnitude.has_value() ||
                      inertMagnitude(hook, *magnitude) == nullptr,
                  "fault magnitude ", *magnitude, " for hook ",
                  toString(hook), " injects nothing");
    HookState &st = state(hook);
    if (st.rate <= 0.0 && rate > 0.0)
        ++armed_;
    else if (st.rate > 0.0 && rate <= 0.0)
        --armed_;
    st.rate = rate;
    if (magnitude.has_value())
        st.magnitude = *magnitude;
}

std::uint64_t
FaultPlan::totalFired() const
{
    std::uint64_t total = 0;
    for (const HookState &st : hooks_)
        total += st.fired.value();
    return total;
}

std::uint64_t
FaultPlan::totalChecked() const
{
    std::uint64_t total = 0;
    for (const HookState &st : hooks_)
        total += st.checked.value();
    return total;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    bool first = true;
    for (std::size_t i = 0; i < kNumHooks; ++i) {
        if (hooks_[i].rate <= 0.0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << kHookInfo[i].name << ":" << shortestText(hooks_[i].rate);
        if (hooks_[i].magnitude != kHookInfo[i].defaultMagnitude)
            os << ":" << shortestText(hooks_[i].magnitude);
    }
    return os.str();
}

void
FaultPlan::registerStats(StatGroup &g) const
{
    for (std::size_t i = 0; i < kNumHooks; ++i) {
        const std::string name = kHookInfo[i].name;
        g.addCounter(name + ".checked", hooks_[i].checked,
                     "times the " + name + " hook was evaluated");
        g.addCounter(name + ".fired", hooks_[i].fired,
                     "faults injected at the " + name + " hook");
    }
    g.addFormula("totalChecked", [this] {
        return static_cast<double>(totalChecked());
    }, "hook evaluations across all hooks");
    g.addFormula("totalFired", [this] {
        return static_cast<double>(totalFired());
    }, "faults injected across all hooks");
}

namespace detail
{
FaultPlan *g_plan = nullptr;
} // namespace detail

void
setPlan(FaultPlan *p)
{
    detail::g_plan = p;
}

} // namespace fafnir::fault
