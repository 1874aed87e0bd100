# ctest helper: a run must print exactly its committed golden output.
# Runs ${BENCH} with the space-separated ${ARGS} and compares its stdout
# byte for byte with ${GOLDEN} (results/<name>.txt). Each
# "<file>=<golden>" pair in the space-separated ${ARTIFACTS} names a file
# the run writes, which must equal its golden too. On a stdout mismatch
# it writes the output to ${ACTUAL}; every failure names both files. A
# change that means to move a golden regenerates results/ with
# scripts/run_all.sh.
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(artifacts UNIX_COMMAND "${ARTIFACTS}")
foreach(pair IN LISTS artifacts)
    string(REGEX REPLACE "=.*" "" file "${pair}")
    file(REMOVE "${file}")
endforeach()
execute_process(
    COMMAND "${BENCH}" ${args}
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
foreach(pair IN LISTS artifacts)
    string(REGEX REPLACE "=.*" "" file "${pair}")
    string(REGEX REPLACE "^[^=]*=" "" golden "${pair}")
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files "${file}" "${golden}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR "${file} (written by ${BENCH}) differs from "
                            "${golden}")
    endif()
endforeach()
