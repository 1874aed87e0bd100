# ctest helper: simulated results must not depend on telemetry flags.
# Runs fafnir_sim with ${SIM_ARGS} once plain and once with --trace,
# then requires bench_diff at zero tolerance to pass in both
# directions, so every gated metric (totalUs, batchesPerSec) is equal.
separate_arguments(sim_args UNIX_COMMAND "${SIM_ARGS}")
foreach(mode plain traced)
    set(trace_arg "")
    if(mode STREQUAL "traced")
        set(trace_arg "--trace=${PREFIX}_trace.json")
    endif()
    execute_process(
        COMMAND "${SIM}" ${sim_args} ${trace_arg}
                "--report=${PREFIX}_${mode}.json"
        OUTPUT_QUIET
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fafnir_sim (${mode}) failed (rc=${rc})")
    endif()
endforeach()

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
require_equal(plain traced)
require_equal(traced plain)
