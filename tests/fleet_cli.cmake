# Exit-code contract of the fleet_service CLI, focused on the fault-spec
# diagnostics: a malformed --chaos or --sdc spec must exit 2 with a
# one-line stderr diagnostic that quotes the offending token -- never a
# crash, never a silently-ignored trigger.
#
# Driven from tests/CMakeLists.txt via
#   cmake -DFLEET_SERVICE=... -DWORK_DIR=... -P fleet_cli.cmake
foreach(var FLEET_SERVICE WORK_DIR)
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

# Usage-level errors around the integrity flags.
expect_fail("serve requires --state" serve --sdc vmin_flip@1)
execute_process(
    COMMAND ${FLEET_SERVICE} serve --state ${state} --quorum 99
    RESULT_VARIABLE rc ERROR_VARIABLE stderr_text)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--quorum 99 exited ${rc}, wanted 2:\n${stderr_text}")
endif()

# A well-formed defended run serves cleanly: quorum 3 outvotes the
# injected flip and the shutdown digest lands on stderr.  A journal left
# by a previous run would warm the cache and starve the injection of its
# opportunity, so start cold.
file(REMOVE ${WORK_DIR}/probes.journal)
execute_process(
    COMMAND ${FLEET_SERVICE} serve --state ${state}
        --journal ${WORK_DIR}/probes.journal
        --nodes 2000 --epochs 1 --sdc vmin_flip@5 --quorum 3
    OUTPUT_VARIABLE stdout_text
    ERROR_VARIABLE stderr_text
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "defended serve exited ${rc}\n"
        "stdout:\n${stdout_text}\nstderr:\n${stderr_text}")
endif()
string(FIND "${stderr_text}" "1 injected, 1 detected" digest)
if(digest EQUAL -1)
    message(FATAL_ERROR
        "defended serve stderr lacks the integrity digest:\n${stderr_text}")
endif()

# The chained journal rejects in-place tampering on restart, with the
# default config too: serve cold, raise one `req=` in record 2, restart.
set(tamper_journal ${WORK_DIR}/tamper.journal)
file(REMOVE ${tamper_journal})
execute_process(
    COMMAND ${FLEET_SERVICE} serve --state ${state}
        --journal ${tamper_journal} --nodes 2000 --epochs 1
    OUTPUT_QUIET
    ERROR_VARIABLE stderr_text
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "default serve exited ${rc}:\n${stderr_text}")
endif()
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
