# ctest helper: a paper harness must print exactly its committed table.
# Runs ${BENCH} and compares its stdout byte for byte with ${GOLDEN}
# (results/<name>.txt). On a mismatch it writes the output to ${ACTUAL}
# and fails, naming both files. A change that means to move a table
# regenerates results/ with scripts/run_all.sh.
execute_process(
    COMMAND "${BENCH}"
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} failed (rc=${rc})")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    file(WRITE "${ACTUAL}" "${actual}")
    message(FATAL_ERROR
            "stdout of ${BENCH} differs from ${GOLDEN}; "
            "actual output written to ${ACTUAL}")
endif()
