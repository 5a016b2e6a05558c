# Argument-rejection contract of the undervolt_campaign and fleet_binning
# examples: a typoed flag, an unknown benchmark name, an out-of-range
# --faults rate or a trailing argument exits 2 with a one-line diagnostic
# quoting the offending input -- before any characterization runs, so each
# case returns in well under a second.
#
# Driven from tests/CMakeLists.txt via
#   cmake -DCAMPAIGN=... -DFLEET_BINNING=... -P examples_cli.cmake
foreach(var CAMPAIGN FLEET_BINNING)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "examples_cli.cmake needs -D${var}=...")
    endif()
endforeach()

# expect_usage_error(<needle> <binary> <args...>): the binary must exit 2
# and name <needle> on stderr.
function(expect_usage_error needle binary)
    execute_process(
        COMMAND ${binary} ${ARGN}
        OUTPUT_VARIABLE stdout_text
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc
        TIMEOUT 10)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
            "${binary} ${ARGN} exited ${rc}, wanted 2\n"
            "stdout:\n${stdout_text}\nstderr:\n${stderr_text}")
    endif()
    string(FIND "${stderr_text}" "${needle}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "${binary} ${ARGN}: stderr does not mention '${needle}':\n"
            "${stderr_text}")
    endif()
endfunction()

# A typoed flag is not a benchmark name, first or after a valid one.
expect_usage_error("'--fautls'" ${CAMPAIGN} --fautls)
expect_usage_error("'--fautls'" ${CAMPAIGN} TTT milc --fautls 0.1)
expect_usage_error("'not_a_benchmark'" ${CAMPAIGN} milc not_a_benchmark)
# --faults is a rate in [0, 1].
expect_usage_error("--faults" ${CAMPAIGN} milc --faults 1.5)
expect_usage_error("--faults" ${CAMPAIGN} milc --faults abc)
expect_usage_error("--journal" ${CAMPAIGN} milc --journal)

# fleet_binning takes one positional argument.
expect_usage_error("'extra'" ${FLEET_BINNING} 4 extra)
expect_usage_error("'--bogus'" ${FLEET_BINNING} 4 --bogus)
expect_usage_error("'--bogus'" ${FLEET_BINNING} --bogus)
