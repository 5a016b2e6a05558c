# Bench-counter gate: every pinned bench other than fig4_vmin_spec (which
# fig4_golden.cmake covers) must reproduce the counters of its checked-in
# baseline exactly -- content.hash included -- at GB_JOBS=1 and 2.  The
# run-dependent wall.* gauges are stripped from both sides first, so
# `gbreport diff` at its default tolerance compares counters only.
#
# Regenerate a baseline after a *deliberate* content change:
#   <build>/bench/<binary> --baseline bench/baselines
#
# Driven from tests/CMakeLists.txt via
#   cmake -DBENCH_DIR=... -DGBREPORT=... -DBASELINE_DIR=... -DWORK_DIR=...
#         -P bench_counters.cmake
foreach(var BENCH_DIR GBREPORT BASELINE_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "bench_counters.cmake needs -D${var}=...")
    endif()
endforeach()

# Strip the run-dependent wall.* gauge lines so the remaining bytes are the
# deterministic content (counters, including content.hash).
function(strip_gauges input output)
    file(READ ${input} text)
    string(REGEX REPLACE "[ \t]*\"wall\\.[^\n]*\n" "" text "${text}")
    file(WRITE ${output} "${text}")
endfunction()

# <baseline name>:<bench binary>
set(benches
    micro_kernels:micro_perf
    ablation_supervisor:ablation_supervisor
    ablation_campaign_resilience:ablation_campaign_resilience
    ablation_fleet_service:ablation_fleet_service
    ablation_chaos_recovery:ablation_chaos_recovery
    ablation_sdc_audit:ablation_sdc_audit
    ablation_observatory:ablation_observatory)

foreach(jobs 1 2)
    set(ENV{GB_JOBS} ${jobs})
    set(dir ${WORK_DIR}/jobs_${jobs})
    file(REMOVE_RECURSE ${dir})
    file(MAKE_DIRECTORY ${dir})
    foreach(bench ${benches})
        string(REPLACE ":" ";" bench "${bench}")
        list(GET bench 0 name)
        list(GET bench 1 binary)
        execute_process(
            COMMAND ${BENCH_DIR}/${binary} --baseline ${dir}
            OUTPUT_QUIET
            ERROR_VARIABLE stderr_text
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "${binary} failed at GB_JOBS=${jobs} (rc=${rc}):\n"
                "${stderr_text}")
        endif()
        strip_gauges(${BASELINE_DIR}/BENCH_${name}.json
                     ${dir}/expected_${name}.json)
        strip_gauges(${dir}/BENCH_${name}.json ${dir}/counters_${name}.json)
        execute_process(
            COMMAND ${GBREPORT} diff ${dir}/expected_${name}.json
                    ${dir}/counters_${name}.json
            OUTPUT_VARIABLE diff_text
            ERROR_VARIABLE diff_err
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "${name} counters moved from the checked-in baseline at "
                "GB_JOBS=${jobs} (gbreport diff rc=${rc}):\n"
                "${diff_text}${diff_err}")
        endif()
    endforeach()
endforeach()
