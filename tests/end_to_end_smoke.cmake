# End-to-end smoke of the supervised examples and the fleet daemon loop.
#
# * uniserver_autopilot and jammer_detector run their supervised
#   deployments under injected faults (each exits non-zero itself if an
#   epoch goes unaccounted or no breaker trips), writing their trace and
#   metrics artifacts; the autopilot's stdout is byte-identical at GB_JOBS
#   1 and 8.
# * fleet_service serves a 10^5-node fleet on a control file while a client
#   (this script again, with -DROLE=client) waits for it through
#   `query --command`'s bounded ack wait, queries bins and cohorts, drives a
#   `campaign -25` to epoch 2 and shuts the daemon down.
#
# Driven from tests/CMakeLists.txt via
#   cmake -DAUTOPILOT=... -DJAMMER=... -DFLEET_SERVICE=... -DGBREPORT=...
#         -DWORK_DIR=... -P end_to_end_smoke.cmake
foreach(var FLEET_SERVICE GBREPORT WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "end_to_end_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

set(state ${WORK_DIR}/fleet/state.json)
set(control ${WORK_DIR}/fleet/control)
# Ack backoff doubles from 10 ms up to its 2 s cap: 16 retries give up
# after ~18.5 s, far past a healthy (even sanitized) daemon's first publish.
set(ack_wait --ack-retries 16 --ack-base-ms 10)

if(ROLE STREQUAL "client")
    # fail(<message>...): ask the daemon to shut down, so the pipeline
    # ends, then fail.
    function(fail)
        execute_process(
            COMMAND ${FLEET_SERVICE} query --control ${control}
                --command shutdown --ack-retries 8 --ack-base-ms 10
            OUTPUT_QUIET ERROR_QUIET)
        message(FATAL_ERROR ${ARGV})
    endfunction()

    # query_ok(<args...>): run `fleet_service query` and require exit 0.
    function(query_ok)
        execute_process(
            COMMAND ${FLEET_SERVICE} query ${ARGN}
            OUTPUT_VARIABLE stdout_text
            ERROR_VARIABLE stderr_text
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            fail("fleet_service query ${ARGN} exited ${rc}\n"
                 "stdout:\n${stdout_text}\nstderr:\n${stderr_text}")
        endif()
        set(query_stdout "${stdout_text}" PARENT_SCOPE)
    endfunction()

    # The daemon publishes after its first epoch and only then polls the
    # control file, so the acknowledged `publish` means the state exists.
    query_ok(--control ${control} --command publish ${ack_wait}
        --state ${state} --bins)
    if(NOT query_stdout MATCHES "voltage class mV")
        fail("query --bins printed no bins:\n${query_stdout}")
    endif()
    query_ok(--state ${state} --cohorts)
    execute_process(COMMAND ${GBREPORT} status ${state}
        OUTPUT_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        fail("gbreport status exited ${rc}, wanted 0")
    endif()
    # The daemon runs the campaign and publishes before it acknowledges.
    query_ok(--control ${control} --command "campaign -25" ${ack_wait})
    file(READ ${state} state_text)
    if(NOT state_text MATCHES "\"epoch\":2")
        fail("state after `campaign -25` is not epoch 2")
    endif()
    query_ok(--control ${control} --command shutdown ${ack_wait})
    return()
endif()

foreach(var AUTOPILOT JAMMER)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "end_to_end_smoke.cmake needs -D${var}=...")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR}/fleet)

# run_example(<stdout_file> <jobs> <binary> <args...>): run an example at
# GB_JOBS=<jobs>, require exit 0 and keep its stdout.
function(run_example stdout_file jobs binary)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env GB_JOBS=${jobs} ${binary} ${ARGN}
        OUTPUT_FILE ${stdout_file}
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "GB_JOBS=${jobs} ${binary} ${ARGN} exited ${rc}\n${stderr_text}")
    endif()
endfunction()

# --- supervised examples under faults ------------------------------------

run_example(${WORK_DIR}/autopilot_1.txt 1 ${AUTOPILOT} 48
    --trace ${WORK_DIR}/autopilot_trace.json
    --metrics ${WORK_DIR}/autopilot_metrics.json)
run_example(${WORK_DIR}/autopilot_8.txt 8 ${AUTOPILOT} 48)
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
        ${WORK_DIR}/autopilot_1.txt ${WORK_DIR}/autopilot_8.txt
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "uniserver_autopilot stdout differs at GB_JOBS 1/8")
endif()
run_example(${WORK_DIR}/jammer.txt 1 ${JAMMER} 600 8 96
    --trace ${WORK_DIR}/jammer_trace.json
    --metrics ${WORK_DIR}/jammer_metrics.json)

# --- fleet daemon loop ----------------------------------------------------

# The client and the daemon run concurrently as one pipeline; neither
# reads the other's output.  TIMEOUT kills both if the loop wedges.
execute_process(
    COMMAND ${CMAKE_COMMAND} -DROLE=client -DFLEET_SERVICE=${FLEET_SERVICE}
        -DGBREPORT=${GBREPORT} -DWORK_DIR=${WORK_DIR}
        -P ${CMAKE_CURRENT_LIST_FILE}
    COMMAND ${FLEET_SERVICE} serve --state ${state}
        --journal ${WORK_DIR}/fleet/probes.journal --control ${control}
        --nodes 100000 --epochs 1 --poll-ms 5
    OUTPUT_VARIABLE stdout_text
    ERROR_VARIABLE stderr_text
    RESULTS_VARIABLE codes
    TIMEOUT 240)
if(NOT codes STREQUAL "0;0")
    message(FATAL_ERROR
        "client/daemon exited ${codes}, wanted 0;0\n"
        "stdout:\n${stdout_text}\nstderr:\n${stderr_text}")
endif()
