# Exit-code contract of the fleet_service CLI, focused on the fault-spec
# diagnostics: a malformed --chaos or --sdc spec must exit 2 with a
# one-line stderr diagnostic that quotes the offending token -- never a
# crash, never a silently-ignored trigger.  Two end-to-end smoke stages
# follow: the quorum outvoting a Byzantine rig bitwise, and degraded-mode
# serving under a hostile rig.  Last, an artifact path that cannot be
# written exits 2 and names the path.
#
# Driven from tests/CMakeLists.txt via
#   cmake -DFLEET_SERVICE=... -DGBREPORT=... -DWORK_DIR=... -P fleet_cli.cmake
foreach(var FLEET_SERVICE GBREPORT WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "fleet_cli.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

# expect_fail(<needle> <args...>): run fleet_service, require exit 2 and
# the diagnostic substring on stderr.
function(expect_fail needle)
    execute_process(
        COMMAND ${FLEET_SERVICE} ${ARGN}
        OUTPUT_VARIABLE stdout_text
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "fleet_service ${ARGN} exited ${rc}, wanted 2\n"
            "stdout:\n${stdout_text}\nstderr:\n${stderr_text}")
    endif()
    string(FIND "${stderr_text}" "${needle}" found)
    if(found EQUAL -1)
        message(FATAL_ERROR
            "fleet_service ${ARGN} stderr lacks '${needle}':\n"
            "${stderr_text}")
    endif()
endfunction()

# run_ok(<tool> <out_var> <args...>): run a tool, require exit 0, and
# return its stdout + stderr in <out_var>.
function(run_ok tool out_var)
    execute_process(
        COMMAND ${tool} ${ARGN}
        OUTPUT_VARIABLE stdout_text
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${tool} ${ARGN} exited ${rc}\n"
            "stdout:\n${stdout_text}\nstderr:\n${stderr_text}")
    endif()
    set(${out_var} "${stdout_text}${stderr_text}" PARENT_SCOPE)
endfunction()

# expect_text(<text> <needle> <what>): require a substring.
function(expect_text text needle what)
    string(FIND "${text}" "${needle}" found)
    if(found EQUAL -1)
        message(FATAL_ERROR "${what} lacks '${needle}':\n${text}")
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

set(state ${WORK_DIR}/state.json)

# Malformed --sdc specs quote the exact offending token.
expect_fail("unknown sdc site 'refresh'"
    serve --state ${state} --sdc refresh@3)
expect_fail("sdc trigger 'vmin_flip@0' wants a positive integer after '@'"
    serve --state ${state} --sdc vmin_flip@0)
expect_fail("sdc trigger 'vmin_flip' wants site@at[/param]"
    serve --state ${state} --sdc vmin_flip)
expect_fail("empty sdc trigger in spec 'vmin_flip@1,,power_scale@2'"
    serve --state ${state} --sdc vmin_flip@1,,power_scale@2)
expect_fail("sdc trigger 'vmin_flip@3/x' wants an integer parameter after '/'"
    serve --state ${state} --sdc vmin_flip@3/x)

# Malformed --chaos specs get the same treatment.
expect_fail("chaos trigger 'power_cut@1'"
    serve --state ${state} --chaos power_cut@1)
expect_fail("empty chaos trigger in spec 'journal_append@5,,snapshot_rename@1'"
    serve --state ${state} --chaos journal_append@5,,snapshot_rename@1)

# Real-valued flags are finite: a NaN would bin every node at the cap and
# write a timeline.json that gbreport rejects.
expect_fail("--aging wants a number in"
    serve --state ${state} --aging nan)
expect_fail("--fault-rate wants a number in"
    serve --state ${state} --fault-rate nan)

# Arguments no flag consumed are typos or retired flags: each subcommand
# names the first one and exits 2 instead of running with defaults.
expect_fail("fleet_service: unknown argument '--shards'"
    serve --state ${state} --nodes 100 --epochs 0 --shards 4)
expect_fail("fleet_service: unknown argument '--epoch'"
    serve --state ${state} --nodes 100 --epochs 0 --epoch 7)
expect_fail("fleet_service: unknown argument '--nonsense'"
    query --state ${state} --nonsense)

# Usage-level errors around the integrity flags.
expect_fail("serve requires --state" serve --sdc vmin_flip@1)
execute_process(
    COMMAND ${FLEET_SERVICE} serve --state ${state} --quorum 99
    RESULT_VARIABLE rc ERROR_VARIABLE stderr_text)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--quorum 99 exited ${rc}, wanted 2:\n${stderr_text}")
endif()

# SDC smoke: quorum 3 outvotes a Byzantine rig bitwise.  The attacked
# run (one replica's Vmin bit-flipped) must land on the honest run's
# journal and state bytes, print the integrity digest on stderr, and
# read clean under `gbreport audit`.  Journals left by a previous run
# would warm the cache and starve the injection of its opportunity, so
# both runs start cold.
set(sdc_dir ${WORK_DIR}/sdc)
file(REMOVE_RECURSE ${sdc_dir})
file(MAKE_DIRECTORY ${sdc_dir}/ref ${sdc_dir}/run)
run_ok(${FLEET_SERVICE} honest_text serve --state ${sdc_dir}/ref/state.json
    --journal ${sdc_dir}/ref/probes.journal
    --nodes 2000 --epochs 2 --quorum 3)
run_ok(${FLEET_SERVICE} attack_text serve --state ${sdc_dir}/run/state.json
    --journal ${sdc_dir}/run/probes.journal
    --metrics ${sdc_dir}/run/metrics.json
    --nodes 2000 --epochs 2 --quorum 3 --sdc vmin_flip@5)
expect_text("${attack_text}" "1 injected, 1 detected" "attacked serve output")
run_ok(${GBREPORT} audit_text audit --metrics ${sdc_dir}/run/metrics.json)
expect_text("${audit_text}" "1 injected, 1 detected (1 outvoted"
    "gbreport audit")
expect_text("${audit_text}" "0 escaped" "gbreport audit")
expect_text("${audit_text}" "verdict: clean" "gbreport audit")
expect_same(${sdc_dir}/ref/probes.journal ${sdc_dir}/run/probes.journal)
expect_same(${sdc_dir}/ref/state.json ${sdc_dir}/run/state.json)

# Degraded-mode serving under a hostile rig: with most attempts faulted
# and no retry or re-plan budget, some cohorts never resolve.  The
# campaign still completes and serves them degraded, and both readers
# show the quarantine.
set(degraded_state ${WORK_DIR}/degraded_state.json)
file(REMOVE ${degraded_state})
run_ok(${FLEET_SERVICE} serve_text serve --state ${degraded_state}
    --nodes 100000 --epochs 1
    --fault-rate 0.8 --retry 0 --replan 0)
file(READ ${degraded_state} degraded_json)
expect_text("${degraded_json}" "\"degraded\":{\"cohorts\":" "state.json")
string(FIND "${degraded_json}" "\"degraded\":{\"cohorts\":0," none_degraded)
if(NOT none_degraded EQUAL -1)
    message(FATAL_ERROR "hostile rig degraded no cohort:\n${degraded_json}")
endif()
run_ok(${GBREPORT} status_text status ${degraded_state})
expect_text("${status_text}" "degraded:" "gbreport status")
run_ok(${FLEET_SERVICE} query_text query --state ${degraded_state})
expect_text("${query_text}" "DEGRADED:" "fleet_service query")

# The chained journal rejects in-place tampering on restart, with the
# default config too: serve cold, raise one `req=` in record 2, restart.
set(tamper_journal ${WORK_DIR}/tamper.journal)
file(REMOVE ${tamper_journal})
run_ok(${FLEET_SERVICE} tamper_text serve --state ${state}
    --journal ${tamper_journal} --nodes 2000 --epochs 1)
file(STRINGS ${tamper_journal} records)
list(GET records 1 record)
string(REGEX REPLACE "req=([0-9])" "req=9\\1" tampered "${record}")
if(tampered STREQUAL record)
    message(FATAL_ERROR "record 2 has no req= field to tamper:\n${record}")
endif()
list(REMOVE_AT records 1)
list(INSERT records 1 "${tampered}")
list(JOIN records "\n" text)
file(WRITE ${tamper_journal} "${text}\n")
expect_fail(":2: chain hash mismatch"
    serve --state ${state} --journal ${tamper_journal} --nodes 2000
    --epochs 1)

# An unopenable --journal path -- a directory, or a file in a missing
# directory -- is a one-line diagnostic and exit 2, not an abort.
file(REMOVE_RECURSE ${WORK_DIR}/missing)
expect_fail("fleet_service: cannot open journal ${WORK_DIR}"
    serve --state ${state} --journal ${WORK_DIR} --nodes 10 --epochs 0)
expect_fail(
    "fleet_service: cannot open journal ${WORK_DIR}/missing/probes.journal"
    serve --state ${state} --journal ${WORK_DIR}/missing/probes.journal
    --nodes 10 --epochs 0)

# --- an artifact path that cannot be written exits 2 ---------------------
# Nothing can be created under a regular file, not even by root.
set(plain ${WORK_DIR}/plain.txt)
file(WRITE ${plain} "a regular file\n")
expect_fail("fleet_service: cannot write ${plain}/state.json"
    serve --state ${plain}/state.json --nodes 300)
foreach(flag --trace --metrics --prom --timeline)
    expect_fail("fleet_service: cannot write ${plain}/artifact.json"
        serve --state ${state} --nodes 300 ${flag} ${plain}/artifact.json)
endforeach()
