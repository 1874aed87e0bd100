# ctest helper: windowed metrics reach --stats-json. Runs the serving
# tier with --timeline, which records serving.latency_us per window,
# and requires the `windows` stats group to carry that metric's total.
execute_process(
    COMMAND "${SIM}" --mode=lookup --engine=event --batches=8
            --serve-engines=2 --timeline=windows_timeline.jsonl
            --stats-json=windows_stats.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fafnir_sim failed (rc=${rc})")
endif()
file(READ windows_stats.json json)
string(JSON total ERROR_VARIABLE missing
       GET "${json}" windows serving.latency_us.total)
if(missing OR NOT total GREATER 0)
    message(FATAL_ERROR "windows.serving.latency_us.total is "
                        "'${total}' (${missing}), expected > 0")
endif()
