# ctest helper: simulated results must not depend on telemetry flags.
# Runs fafnir_sim with ${SIM_ARGS} once plain and once observed, with
# the observing flags ${OBSERVE_ARGS} added (default: --trace), then
# requires bench_diff at zero tolerance to pass in both directions, so
# every gated metric (totalUs, batchesPerSec) is equal. bench_diff does
# not gate informational counts (retries, faultsInjected, ...), so the
# two reports' `metrics` and `stats` objects must also be equal outright.
# ${OBSERVER_METRICS} and ${OBSERVER_STATS} (space-separated) name the
# metrics and stats groups the observing flags add to the report
# themselves (--slo adds sloAlertFires, sloAlertClears and the slo
# group, --timeline the windows group): the plain run cannot have them,
# so the comparisons read a copy of the observed report without them.
separate_arguments(sim_args UNIX_COMMAND "${SIM_ARGS}")
if(NOT DEFINED OBSERVE_ARGS)
    set(OBSERVE_ARGS "--trace=${PREFIX}_trace.json")
endif()
separate_arguments(observe_args UNIX_COMMAND "${OBSERVE_ARGS}")
foreach(mode plain observed)
    set(extra_args "")
    if(mode STREQUAL "observed")
        set(extra_args ${observe_args})
    endif()
    execute_process(
        COMMAND "${SIM}" ${sim_args} ${extra_args}
                "--report=${PREFIX}_${mode}.json"
        OUTPUT_QUIET
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fafnir_sim (${mode}) failed (rc=${rc})")
    endif()
endforeach()

separate_arguments(observer_metrics UNIX_COMMAND "${OBSERVER_METRICS}")
separate_arguments(observer_stats UNIX_COMMAND "${OBSERVER_STATS}")
file(READ "${PREFIX}_observed.json" observed)
foreach(name IN LISTS observer_metrics)
    string(JSON observed REMOVE "${observed}" metrics ${name})
endforeach()
foreach(name IN LISTS observer_stats)
    string(JSON observed REMOVE "${observed}" stats ${name})
endforeach()
file(WRITE "${PREFIX}_observed_shared.json" "${observed}")

function(require_equal baseline current)
    execute_process(
        COMMAND "${DIFF}" "--baseline=${PREFIX}_${baseline}.json"
                "--current=${PREFIX}_${current}.json" --tolerance=0
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "simulated metrics differ between the ${baseline} and "
                "${current} runs (bench_diff rc=${rc})")
    endif()
endfunction()
require_equal(plain observed)
require_equal(observed_shared plain)

file(READ "${PREFIX}_plain.json" plain)
foreach(part metrics stats)
    string(JSON plain_part GET "${plain}" ${part})
    string(JSON observed_part GET "${observed}" ${part})
    string(JSON same EQUAL "${plain_part}" "${observed_part}")
    if(NOT same)
        message(FATAL_ERROR
                "the reports' ${part} objects differ between the plain "
                "and observed runs (${PREFIX}_plain.json, "
                "${PREFIX}_observed_shared.json)")
    endif()
endforeach()
