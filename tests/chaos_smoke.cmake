# Chaos smoke stages of the fleet_service CLI: a daemon killed mid journal
# append, and one killed mid observatory (timeline) append, must each
# leave a torn (newline-less) journal tail behind and, after a restart
# over the torn bytes, converge to the uninterrupted run's journal, state
# and timeline bytes.  A control-file query nobody acknowledges must give
# up with exit code 1.
#
# Driven from tests/CMakeLists.txt via
#   cmake -DFLEET_SERVICE=... -DGBREPORT=... -DWORK_DIR=... -P chaos_smoke.cmake
foreach(var FLEET_SERVICE GBREPORT WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "chaos_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# run_rc(<want_rc> <args...>): run fleet_service and require exit <want_rc>.
function(run_rc want_rc)
    execute_process(
        COMMAND ${FLEET_SERVICE} ${ARGN}
        OUTPUT_VARIABLE stdout_text
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL want_rc)
        message(FATAL_ERROR
            "fleet_service ${ARGN} exited ${rc}, wanted ${want_rc}\n"
            "stdout:\n${stdout_text}\nstderr:\n${stderr_text}")
    endif()
endfunction()

# expect_same(<reference> <candidate>): require byte-equal files.
function(expect_same reference candidate)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${reference} ${candidate}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${candidate} differs from ${reference}")
    endif()
endfunction()

# expect_torn_tail(<path>): the kill left a partial last line, i.e. the
# file's final byte is not a newline (`tail -c 1` is non-empty).
function(expect_torn_tail path)
    file(SIZE ${path} size)
    if(size EQUAL 0)
        message(FATAL_ERROR "${path} is empty: the kill wrote nothing")
    endif()
    math(EXPR last "${size} - 1")
    file(READ ${path} tail_byte OFFSET ${last} LIMIT 1 HEX)
    if(tail_byte STREQUAL "0a")
        message(FATAL_ERROR "${path} ends in a newline: no torn tail")
    endif()
endfunction()

# --- crash mid journal append, restart, bitwise recovery -----------------

set(append_dir ${WORK_DIR}/append)
file(MAKE_DIRECTORY ${append_dir}/ref ${append_dir}/run)
set(append_args --nodes 100000 --epochs 2)
# Reference: the bytes the recovered daemon must converge to.
run_rc(0 serve --state ${append_dir}/ref/state.json
    --journal ${append_dir}/ref/probes.journal ${append_args})
# The same schedule with a kill-point armed at 4000 journal bytes.
run_rc(42 serve --state ${append_dir}/run/state.json
    --journal ${append_dir}/run/probes.journal ${append_args}
    --chaos journal_append@4000 --chaos-exit 42)
expect_torn_tail(${append_dir}/run/probes.journal)
# Restart over the torn bytes: self-heal, warm, re-execute only the lost
# probes -- and land on identical bytes.
run_rc(0 serve --state ${append_dir}/run/state.json
    --journal ${append_dir}/run/probes.journal ${append_args})
expect_same(${append_dir}/ref/probes.journal ${append_dir}/run/probes.journal)
expect_same(${append_dir}/ref/state.json ${append_dir}/run/state.json)

# --- crash mid timeline append, restart, observatory bytes ---------------

set(obs_dir ${WORK_DIR}/obs)
file(MAKE_DIRECTORY ${obs_dir}/ref ${obs_dir}/run)
set(rules ${obs_dir}/drift.alert)
file(WRITE ${rules}
    "alert vmin-drift vmin.* slope 1.5 window 3\n"
    "alert power-ceiling fleet.power_binned_w above 1e9\n")
set(obs_args --alerts ${rules} --aging 2.0 --nodes 100000 --epochs 4)
# Reference: a 4-epoch aged serve with the observatory armed.
run_rc(0 serve --state ${obs_dir}/ref/state.json
    --journal ${obs_dir}/ref/probes.journal
    --timeline ${obs_dir}/ref/timeline.json ${obs_args})
# Die mid observatory append: the 50th tline/alert/tseal record tears.
run_rc(42 serve --state ${obs_dir}/run/state.json
    --journal ${obs_dir}/run/probes.journal
    --timeline ${obs_dir}/run/timeline.json ${obs_args}
    --chaos timeline_append@50 --chaos-exit 42)
expect_torn_tail(${obs_dir}/run/probes.journal)
# Restart over the torn bytes: the warm heals the tail, replays the sealed
# observatory records into a fresh recorder, and every artifact lands
# byte-identical to the reference.
run_rc(0 serve --state ${obs_dir}/run/state.json
    --journal ${obs_dir}/run/probes.journal
    --timeline ${obs_dir}/run/timeline.json ${obs_args})
expect_same(${obs_dir}/ref/timeline.json ${obs_dir}/run/timeline.json)
expect_same(${obs_dir}/ref/probes.journal ${obs_dir}/run/probes.journal)
expect_same(${obs_dir}/ref/state.json ${obs_dir}/run/state.json)
# The seeded drift is visible to the report tooling: the render succeeds
# and the alert gate exits 1.
execute_process(COMMAND ${GBREPORT} timeline ${obs_dir}/run/timeline.json
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gbreport timeline exited ${rc}, wanted 0")
endif()
execute_process(COMMAND ${GBREPORT} alerts ${obs_dir}/run/timeline.json
    OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "gbreport alerts exited ${rc}, wanted 1")
endif()

# --- an unacknowledged control command exits 1 ---------------------------

# No daemon polls this control file: the bounded ack wait (10 + 20 ms of
# backoff) must give up with exit 1.
run_rc(1 query --control ${WORK_DIR}/orphan.control --command publish
    --ack-retries 2 --ack-base-ms 10)
