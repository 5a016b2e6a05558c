# Argument-rejection contract of the examples: a typoed flag, an unknown
# benchmark name, an out-of-range --faults rate, an unopenable --journal
# path, a trailing argument or counts the run cannot honour exit 2 with a
# one-line diagnostic quoting the offending input -- before any
# characterization runs, so each case returns in well under a second.
#
# Then every --status writer -- the five examples that take --status and
# fleet_service serve with an observatory and degraded -- leaves a
# snapshot that `gbreport status` reads, and each fleet snapshot also
# reads through `fleet_service query --bins --cohorts`.  Last, an artifact
# path that cannot be written exits 2 and names the path.
#
# Driven from tests/CMakeLists.txt via
#   cmake -DCAMPAIGN=... -DFLEET_BINNING=... -DVIRUS_LAB=...
#         -DDRAM_EXPLORER=... -DJAMMER=... -DAUTOPILOT=... -DFLEET_SERVICE=...
#         -DGBREPORT=... -DWORK_DIR=... -P examples_cli.cmake
foreach(var CAMPAIGN FLEET_BINNING VIRUS_LAB DRAM_EXPLORER JAMMER AUTOPILOT
        FLEET_SERVICE GBREPORT WORK_DIR)
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
# An unopenable journal (a directory, a file in a missing directory) is
# reported before the first benchmark runs.
expect_usage_error("undervolt_campaign: cannot open journal ${CMAKE_CURRENT_LIST_DIR}"
    ${CAMPAIGN} milc --journal ${CMAKE_CURRENT_LIST_DIR})
expect_usage_error("cannot open journal ${CMAKE_CURRENT_LIST_DIR}/no_such_dir/j.milc"
    ${CAMPAIGN} milc namd --journal ${CMAKE_CURRENT_LIST_DIR}/no_such_dir/j)

# fleet_binning takes one positional argument.
expect_usage_error("'extra'" ${FLEET_BINNING} 4 extra)
expect_usage_error("'--bogus'" ${FLEET_BINNING} 4 --bogus)
expect_usage_error("'--bogus'" ${FLEET_BINNING} --bogus)

# The other examples take only positional counts and their flags.
expect_usage_error("'--stauts'" ${VIRUS_LAB} 2 --stauts s.json)
expect_usage_error("'--stauts'" ${DRAM_EXPLORER} 60 4 --stauts s.json)
expect_usage_error("'--stauts'" ${JAMMER} 600 8 96 --stauts s.json)
expect_usage_error("'--stauts'" ${AUTOPILOT} 2 --stauts s.json)
expect_usage_error("unknown argument '2'" ${AUTOPILOT} 2 2 --stauts s.json)
# Each jam event needs a slot of more than 8 windows.
expect_usage_error("windows (10) must exceed 8 x events (2)" ${JAMMER} 10 2 4)

# --- every status writer round-trips through the strict reader ----------

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# expect_ok(<binary> <args...>): the binary must exit 0.
function(expect_ok binary)
    execute_process(
        COMMAND ${binary} ${ARGN}
        OUTPUT_QUIET
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc
        TIMEOUT 30)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${binary} ${ARGN} exited ${rc}, wanted 0\n${stderr_text}")
    endif()
endfunction()

expect_ok(${VIRUS_LAB} 2 --status ${WORK_DIR}/virus_lab.json)
expect_ok(${DRAM_EXPLORER} 60 4 --status ${WORK_DIR}/dram_explorer.json)
expect_ok(${JAMMER} 600 8 96 --status ${WORK_DIR}/jammer.json)
expect_ok(${FLEET_BINNING} 1 --status ${WORK_DIR}/fleet_binning.json)
expect_ok(${CAMPAIGN} milc --status ${WORK_DIR}/campaign.json)
file(WRITE ${WORK_DIR}/drift.alert
    "alert vmin-drift vmin.* slope 1.5 window 3\n")
expect_ok(${FLEET_SERVICE} serve --state ${WORK_DIR}/observed.json
    --nodes 300 --epochs 4 --aging 2.0 --timeline ${WORK_DIR}/timeline.json
    --alerts ${WORK_DIR}/drift.alert)
expect_ok(${FLEET_SERVICE} serve --state ${WORK_DIR}/degraded.json
    --nodes 300 --fault-rate 0.8 --retry 0 --replan 0)

foreach(name virus_lab dram_explorer jammer campaign)
    expect_ok(${GBREPORT} status ${WORK_DIR}/${name}.json)
endforeach()
foreach(name fleet_binning observed degraded)
    expect_ok(${GBREPORT} status ${WORK_DIR}/${name}.json)
    expect_ok(${FLEET_SERVICE} query --state ${WORK_DIR}/${name}.json
        --bins --cohorts)
endforeach()

# --- an artifact path that cannot be written exits 2 ---------------------
# Nothing can be created under a regular file, not even by root.
set(plain ${WORK_DIR}/plain.txt)
file(WRITE ${plain} "a regular file\n")
foreach(case
        "jammer_detector|${JAMMER}|600|8|96|--metrics"
        "jammer_detector|${JAMMER}|600|8|96|--trace"
        "jammer_detector|${JAMMER}|600|8|96|--status"
        "undervolt_campaign|${CAMPAIGN}|milc|--metrics"
        "undervolt_campaign|${CAMPAIGN}|milc|--trace"
        "undervolt_campaign|${CAMPAIGN}|milc|--timeline"
        "undervolt_campaign|${CAMPAIGN}|milc|--status"
        "virus_lab|${VIRUS_LAB}|2|--trace"
        "virus_lab|${VIRUS_LAB}|2|--status"
        "dram_retention_explorer|${DRAM_EXPLORER}|60|4|--metrics"
        "dram_retention_explorer|${DRAM_EXPLORER}|60|4|--status"
        "fleet_binning|${FLEET_BINNING}|1|--trace"
        "fleet_binning|${FLEET_BINNING}|1|--metrics"
        "fleet_binning|${FLEET_BINNING}|1|--status"
        "uniserver_autopilot|${AUTOPILOT}|2|--trace"
        "uniserver_autopilot|${AUTOPILOT}|2|--metrics")
    string(REPLACE "|" ";" case "${case}")
    list(POP_FRONT case tool binary)
    expect_usage_error("${tool}: cannot write ${plain}/artifact.json"
        ${binary} ${case} ${plain}/artifact.json)
endforeach()
