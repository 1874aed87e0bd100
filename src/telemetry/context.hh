/**
 * @file
 * The ambient telemetry context: one process-global store for the five
 * instrumentation hooks.
 *
 * Instrumentation sites across the model (DRAM reads, PE meetings, the
 * root link, the serving stages) reach their collectors through five
 * accessors: sink(), attribution(), timeseries(), sloMonitor() and
 * flightRecorder(). Each inlines to one load of a Context member, so a
 * site whose collector is off pays one load + branch.
 *
 * ScopedContext is the one installer. TelemetrySession installs every
 * collector a run asked for at once; a scope that overrides one hook
 * installs a copy of the current context with that member changed:
 *
 *   telemetry::Context muted = telemetry::context();
 *   muted.attribution = nullptr;
 *   telemetry::ScopedContext off(muted);
 *
 * The fault plan is not a member: it lives below telemetry in
 * src/common and keeps its own install (fault::ScopedPlanInstall).
 */

#ifndef FAFNIR_TELEMETRY_CONTEXT_HH
#define FAFNIR_TELEMETRY_CONTEXT_HH

namespace fafnir::telemetry
{

class Attribution;
class FlightRecorder;
class SloMonitor;
class TimeSeries;
class TraceSink;

/** The installed collectors (nullptr = off). None is owned. */
struct Context
{
    TraceSink *sink = nullptr;
    Attribution *attribution = nullptr;
    TimeSeries *series = nullptr;
    SloMonitor *slo = nullptr;
    FlightRecorder *recorder = nullptr;
};

namespace detail
{
/** The ambient store; read it through the accessors below. */
inline Context g_context;
} // namespace detail

/** The installed context. */
inline const Context &
context()
{
    return detail::g_context;
}

/** The installed trace sink, or nullptr when tracing is off. */
inline TraceSink *
sink()
{
    return detail::g_context.sink;
}

/** The installed attribution collector, or nullptr when off. */
inline Attribution *
attribution()
{
    return detail::g_context.attribution;
}

/** The installed windowed-metrics engine, or nullptr when off. */
inline TimeSeries *
timeseries()
{
    return detail::g_context.series;
}

/** The installed SLO monitor, or nullptr when off. */
inline SloMonitor *
sloMonitor()
{
    return detail::g_context.slo;
}

/** The installed flight recorder, or nullptr when off; a constant
 *  nullptr under FAFNIR_FLIGHTREC_COMPILED_OUT. */
inline FlightRecorder *
flightRecorder()
{
#ifdef FAFNIR_FLIGHTREC_COMPILED_OUT
    return nullptr;
#else
    return detail::g_context.recorder;
#endif
}

/** RAII installer: installs a whole context for a scope and restores
 *  the previous one on exit. Scopes must nest. */
class ScopedContext
{
  public:
    explicit ScopedContext(const Context &installed)
        : previous_(detail::g_context)
    {
        detail::g_context = installed;
    }
    ~ScopedContext() { detail::g_context = previous_; }

    ScopedContext(const ScopedContext &) = delete;
    ScopedContext &operator=(const ScopedContext &) = delete;

  private:
    Context previous_;
};

} // namespace fafnir::telemetry

#endif // FAFNIR_TELEMETRY_CONTEXT_HH
