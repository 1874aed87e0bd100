# ctest helper: a lossy event hook must not abort event replay. Runs
# fafnir_sim under ${HOOK} on the single engine and on the sharded tier.
# Each run must exit 0, count skipped firings (every event-queue
# callback fires exactly once) and warn about them exactly once. The
# single engine must serve all 64 queries (4 batches of 16); the tier
# must serve values with no mismatch (its value check covers every
# query of every batch).
set(common --mode=lookup --engine=event --batches=4
           --faults=${HOOK}:0.01 --fault-seed=7)
foreach(tier single sharded)
    set(tier_args "")
    if(tier STREQUAL "sharded")
        set(tier_args --shards=2 --serve-engines=2)
    endif()
    set(report "lossy_${HOOK}_${tier}.json")
    execute_process(
        COMMAND "${SIM}" ${common} ${tier_args} "--report=${report}"
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fafnir_sim (${tier}) failed (rc=${rc})")
    endif()
    string(REGEX MATCHALL "skipped a firing" warnings "${err}")
    list(LENGTH warnings warned)
    if(NOT warned EQUAL 1)
        message(FATAL_ERROR "${tier}: ${warned} \"skipped a firing\" "
                            "warnings, expected exactly 1")
    endif()
    file(READ "${report}" json)
    string(JSON skipped GET "${json}" metrics faultsSkipped)
    if(NOT skipped GREATER 0)
        message(FATAL_ERROR "${tier}: faultsSkipped is ${skipped}, "
                            "expected > 0")
    endif()
    if(tier STREQUAL "single")
        set(expect servedQueries=64 droppedQueries=0)
    else()
        set(expect valueMismatches=0)
    endif()
    foreach(pair ${expect})
        string(REPLACE "=" ";" pair "${pair}")
        list(GET pair 0 metric)
        list(GET pair 1 want)
        string(JSON got GET "${json}" metrics ${metric})
        if(NOT got EQUAL want)
            message(FATAL_ERROR "${tier}: ${metric} is ${got}, "
                                "expected ${want}")
        endif()
    endforeach()
endforeach()
