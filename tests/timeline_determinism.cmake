# End-to-end determinism of the fleet observatory artifact: the
# timeline.json a served campaign emits -- ring samples, downsampled
# histograms, alert events from the seeded aging drift -- must be
# byte-identical across GB_JOBS cells (journal and state included),
# pinned to a checked-in golden, and must converge to those same bytes
# after a kill
# -9 mid observatory append followed by a cold restart.  The gbreport
# renderings (timeline summary + alert gate) are pinned alongside.
#
# Driven from tests/CMakeLists.txt via
#   cmake -DFLEET_SERVICE=... -DGBREPORT=... -DGOLDEN_DIR=...
#         -DWORK_DIR=... -P timeline_determinism.cmake
foreach(var FLEET_SERVICE GBREPORT GOLDEN_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "timeline_determinism.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

set(rules ${WORK_DIR}/drift.alert)
file(WRITE ${rules}
    "# seeded 2 mV/epoch aging crosses this slope from epoch 3 on\n"
    "alert vmin-drift vmin.* slope 1.5 window 3\n"
    "alert power-ceiling fleet.power_binned_w above 1e9\n")

# serve_cell(<timeline_out> <jobs> [chaos args...]): cold-start a
# 4-epoch aged serve and capture its timeline artifact.  RC is exported
# as serve_rc for the chaos cell (which must die with the chaos code).
function(serve_cell timeline jobs)
    file(REMOVE ${WORK_DIR}/cell.journal ${WORK_DIR}/cell.state ${timeline})
    execute_process(
        COMMAND ${FLEET_SERVICE} serve
            --state ${WORK_DIR}/cell.state
            --journal ${WORK_DIR}/cell.journal
            --timeline ${timeline} --alerts ${rules} --aging 2.0
            --nodes 10000 --epochs 4 --jobs ${jobs}
            ${ARGN}
        OUTPUT_VARIABLE stdout_text
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc)
    set(serve_rc ${rc} PARENT_SCOPE)
    set(serve_stderr "${stderr_text}" PARENT_SCOPE)
endfunction()

# expect_same(<actual> <expected> <what>): bitwise artifact comparison.
function(expect_same actual expected what)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${actual} ${expected}
        RESULT_VARIABLE differs)
    if(differs)
        file(READ ${actual} actual_text)
        message(FATAL_ERROR
            "${what}: ${actual} diverges from ${expected}\n${actual_text}")
    endif()
endfunction()

# --- the GB_JOBS matrix, pinned to the checked-in golden ----------------

serve_cell(${WORK_DIR}/reference.json 1)
if(NOT serve_rc EQUAL 0)
    message(FATAL_ERROR
        "reference serve exited ${serve_rc}:\n${serve_stderr}")
endif()
expect_same(${WORK_DIR}/reference.json ${GOLDEN_DIR}/fleet_timeline.json
    "golden timeline")
# The reference journal/state are the convergence targets for the crash
# cell below.
execute_process(COMMAND ${CMAKE_COMMAND} -E copy
    ${WORK_DIR}/cell.journal ${WORK_DIR}/reference.journal)
execute_process(COMMAND ${CMAKE_COMMAND} -E copy
    ${WORK_DIR}/cell.state ${WORK_DIR}/reference.state)

foreach(jobs 2 8)
    serve_cell(${WORK_DIR}/cell.json ${jobs})
    if(NOT serve_rc EQUAL 0)
        message(FATAL_ERROR
            "jobs=${jobs} exited ${serve_rc}:\n${serve_stderr}")
    endif()
    expect_same(${WORK_DIR}/cell.json ${WORK_DIR}/reference.json
        "timeline at jobs=${jobs}")
    expect_same(${WORK_DIR}/cell.journal ${WORK_DIR}/reference.journal
        "journal at jobs=${jobs}")
    expect_same(${WORK_DIR}/cell.state ${WORK_DIR}/reference.state
        "state at jobs=${jobs}")
endforeach()

# --- crash mid observatory append, restart, converge --------------------

# The 50th observatory record lands mid epoch 2; the daemon dies with the
# torn prefix on disk (no unwinding, no flushes).
serve_cell(${WORK_DIR}/crash.json 4 --chaos timeline_append@50
    --chaos-exit 57)
if(NOT serve_rc EQUAL 57)
    message(FATAL_ERROR
        "chaos serve exited ${serve_rc}, wanted the kill code 57:\n"
        "${serve_stderr}")
endif()
# Restart over the torn bytes (same journal, no chaos): the warm heals
# the tail, the cache replays the settled probes, and all four epochs
# re-run -- the artifact, journal and snapshot must converge bitwise.
file(REMOVE ${WORK_DIR}/crash.json)
execute_process(
    COMMAND ${FLEET_SERVICE} serve
        --state ${WORK_DIR}/cell.state
        --journal ${WORK_DIR}/cell.journal
        --timeline ${WORK_DIR}/crash.json --alerts ${rules} --aging 2.0
        --nodes 10000 --epochs 4 --jobs 4
    ERROR_VARIABLE stderr_text
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "restart serve exited ${rc}:\n${stderr_text}")
endif()
expect_same(${WORK_DIR}/crash.json ${WORK_DIR}/reference.json
    "timeline after crash/restart")
expect_same(${WORK_DIR}/cell.journal ${WORK_DIR}/reference.journal
    "journal after crash/restart")
expect_same(${WORK_DIR}/cell.state ${WORK_DIR}/reference.state
    "snapshot after crash/restart")

# --- gbreport renderings, pinned ----------------------------------------

# timeline summary: golden stdout, exit 0.
execute_process(
    COMMAND ${GBREPORT} timeline ${WORK_DIR}/reference.json
    OUTPUT_VARIABLE stdout_text
    ERROR_VARIABLE stderr_text
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gbreport timeline exited ${rc}:\n${stderr_text}")
endif()
file(WRITE ${WORK_DIR}/timeline_stdout.txt "${stdout_text}")
expect_same(${WORK_DIR}/timeline_stdout.txt
    ${GOLDEN_DIR}/fleet_timeline_stdout.txt "gbreport timeline stdout")

# alert gate: the seeded drift is firing, so the gate exits 1 with the
# golden report.
execute_process(
    COMMAND ${GBREPORT} alerts ${WORK_DIR}/reference.json
    OUTPUT_VARIABLE stdout_text
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR
        "gbreport alerts exited ${rc} on a firing artifact, wanted 1")
endif()
file(WRITE ${WORK_DIR}/alerts_stdout.txt "${stdout_text}")
expect_same(${WORK_DIR}/alerts_stdout.txt
    ${GOLDEN_DIR}/fleet_alerts_stdout.txt "gbreport alerts stdout")

# A rule set nothing crosses gates clean (exit 0).
file(WRITE ${WORK_DIR}/clean.alert
    "alert power-ceiling fleet.power_binned_w above 1e9\n")
execute_process(
    COMMAND ${GBREPORT} alerts ${WORK_DIR}/reference.json
        --rules ${WORK_DIR}/clean.alert
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "clean alert gate exited ${rc}, wanted 0")
endif()
