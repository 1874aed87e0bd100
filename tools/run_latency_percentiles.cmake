# ctest helper: fafnir_sim prints the batch-latency percentiles it
# writes. Runs the golden event command with --stats-json and requires
# the printed "batch latency: p50 X us, p99 Y us" to equal
# lookup.batchLatencyUs.p50 / .p99 rounded as printf's %.2f rounds
# (to nearest, ties to even).
execute_process(
    COMMAND "${SIM}" --mode=lookup --engine=event --batches=4
            --stats-json=latency_percentiles_stats.json
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR
   NOT out MATCHES "batch latency: p50 ([0-9.]+) us, p99 ([0-9.]+) us")
    message(FATAL_ERROR "fafnir_sim failed (rc=${rc}):\n${out}")
endif()
set(printed_p50 "${CMAKE_MATCH_1}")
set(printed_p99 "${CMAKE_MATCH_2}")
file(READ latency_percentiles_stats.json json)
foreach(p p50 p99)
    string(JSON written GET "${json}" lookup batchLatencyUs ${p})
    if(NOT written MATCHES "^([0-9]+)\\.?([0-9]?)([0-9]?)([0-9]*)$")
        message(FATAL_ERROR "cannot round ${p} ${written}")
    endif()
    # Hundredths, truncated; then round on the digits after them.
    math(EXPR cents
         "${CMAKE_MATCH_1} * 100 + 0${CMAKE_MATCH_2} * 10 + 0${CMAKE_MATCH_3}")
    string(REGEX REPLACE "0+$" "" rest "${CMAKE_MATCH_4}")
    math(EXPR odd "${cents} % 2")
    if(rest MATCHES "^([6-9]|5.)" OR (rest STREQUAL "5" AND odd))
        math(EXPR cents "${cents} + 1")
    endif()
    math(EXPR whole "${cents} / 100")
    math(EXPR frac "100 + ${cents} % 100")
    string(SUBSTRING "${frac}" 1 2 frac)
    if(NOT "${whole}.${frac}" STREQUAL "${printed_${p}}")
        message(FATAL_ERROR "printed ${p} ${printed_${p}} us, but "
                            "--stats-json has ${written}")
    endif()
endforeach()
