# Exit-code contract of the gbreport CLI, pinned without running a full
# campaign: 0 = clean, 1 = diff found a regression or missing metric,
# 2 = usage error or malformed artifact (one-line diagnostic, no crash).
#
# Every reader accepts only bytes its writer renders, so each fixture that
# must load is byte for byte what its writer renders, or an artifact
# fleet_service wrote.  Hand edits of written artifacts exit 2.
#
# Driven from tests/CMakeLists.txt via
#   cmake -DGBREPORT=... -DFLEET_SERVICE=... -DWORK_DIR=...
#         -P gbreport_cli.cmake
foreach(var GBREPORT FLEET_SERVICE WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "gbreport_cli.cmake needs -D${var}=...")
    endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

# expect_exit(<code> <args...>): run gbreport, require the exact exit code.
function(expect_exit expected)
    execute_process(
        COMMAND ${GBREPORT} ${ARGN}
        OUTPUT_VARIABLE stdout_text
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL expected)
        message(FATAL_ERROR
            "gbreport ${ARGN} exited ${rc}, wanted ${expected}\n"
            "stdout:\n${stdout_text}\nstderr:\n${stderr_text}")
    endif()
endfunction()

set(baseline ${WORK_DIR}/baseline.json)
file(WRITE ${baseline} [[{
  "counters": {
    "content.hash": 4857721278376709091,
    "runs.total": 100
  },
  "gauges": {
    "wall.run_ms": 100
  },
  "histograms": {}
}
]])

# Identical inputs: clean pass.
expect_exit(0 diff ${baseline} ${baseline})

# 2% wall regression: caught at default (exact) tolerance...
set(slower ${WORK_DIR}/slower.json)
file(WRITE ${slower} [[{
  "counters": {
    "content.hash": 4857721278376709091,
    "runs.total": 100
  },
  "gauges": {
    "wall.run_ms": 102
  },
  "histograms": {}
}
]])
expect_exit(1 diff ${baseline} ${slower})
# ...tolerated with a wall.* override.
expect_exit(0 diff ${baseline} ${slower} --tolerance wall.*=0.05)

# A one-bit drift in a 64-bit content hash must register even though a
# double compare would merge the two values -- and no tolerance rescues a
# content change.
set(hashbump ${WORK_DIR}/hashbump.json)
file(WRITE ${hashbump} [[{
  "counters": {
    "content.hash": 4857721278376709092,
    "runs.total": 100
  },
  "gauges": {
    "wall.run_ms": 100
  },
  "histograms": {}
}
]])
expect_exit(1 diff ${baseline} ${hashbump})
expect_exit(1 diff ${baseline} ${hashbump} --tolerance wall.*=0.05)

# A metric missing from the candidate fails regardless of tolerance.
set(shrunk ${WORK_DIR}/shrunk.json)
file(WRITE ${shrunk} [[{
  "counters": {
    "content.hash": 4857721278376709091,
    "runs.total": 100
  },
  "gauges": {},
  "histograms": {}
}
]])
expect_exit(1 diff ${baseline} ${shrunk} --tolerance 100)

# Malformed artifacts: diagnostic and exit 2, never a crash.
set(truncated ${WORK_DIR}/truncated.json)
file(WRITE ${truncated} "{\"counters\": {\"runs.total\": 10")
expect_exit(2 diff ${baseline} ${truncated})
expect_exit(2 summary --journal ${WORK_DIR}/no_such_journal.log)
expect_exit(2 critical-path --trace ${truncated})
expect_exit(2 status ${truncated})

# Usage errors.
expect_exit(2 frobnicate)
expect_exit(2 diff ${baseline})
expect_exit(2 diff ${baseline} ${slower} --tolerance wall.*=not_a_number)

# expect_output(<regex> <args...>): run gbreport, require exit 0 and that
# stdout matches the regex.
function(expect_output pattern)
    execute_process(
        COMMAND ${GBREPORT} ${ARGN}
        OUTPUT_VARIABLE stdout_text
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "gbreport ${ARGN} exited ${rc}, wanted 0\n"
            "stdout:\n${stdout_text}\nstderr:\n${stderr_text}")
    endif()
    if(NOT stdout_text MATCHES "${pattern}")
        message(FATAL_ERROR
            "gbreport ${ARGN} stdout did not match '${pattern}'\n"
            "stdout:\n${stdout_text}")
    endif()
endfunction()

# serve_snapshot(<state> <serve args...>): the state snapshot of a small
# fleet_service run.
function(serve_snapshot state)
    execute_process(
        COMMAND ${FLEET_SERVICE} serve --state ${state} --nodes 300 ${ARGN}
        OUTPUT_QUIET
        ERROR_VARIABLE stderr_text
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "fleet_service serve ${ARGN} exited ${rc}\n${stderr_text}")
    endif()
endfunction()

# A fleet snapshot carrying a degraded section renders the quarantine
# line (the degraded-mode serving contract of docs/ROBUSTNESS.md)...
# The fixture is byte for byte what the status writer renders.
set(degraded_status ${WORK_DIR}/degraded_status.json)
# ([=[ bracket: the JSON's "bins":[[...]] would close a plain [[ early.)
file(WRITE ${degraded_status} [=[{"campaign":"fleet","running":false,"tasks_total":72,"tasks_done":72,"retries":3,"injected_faults":5,"aborted_rig":2,"replayed":36,"rig_downtime_ms":120000,"fleet":{"epoch":2,"nodes":10000,"cohorts":36,"probes_executed":34,"cache_hits":36,"cache_entries":34,"power_nominal_w":100,"power_binned_w":90,"supervised_cohorts":0,"supervised_epochs":0,"bins":[[980,5000]],"degraded":{"cohorts":2,"nodes":5000,"quarantined":[{"corner":"TTT","class":0,"op":0,"variant":0,"members":2500}]},"cohorts_top":[]}}
]=])
expect_output("degraded: 2 cohorts \\(5000 nodes\\) quarantined"
    status ${degraded_status})

# ...a healthy fleet snapshot stays silent about degradation...
set(healthy_status ${WORK_DIR}/healthy_status.json)
serve_snapshot(${healthy_status})
execute_process(
    COMMAND ${GBREPORT} status ${healthy_status}
    OUTPUT_VARIABLE healthy_stdout
    RESULT_VARIABLE healthy_rc)
if(NOT healthy_rc EQUAL 0 OR healthy_stdout MATCHES "degraded")
    message(FATAL_ERROR
        "healthy snapshot rendered a degraded line (rc ${healthy_rc}):\n"
        "${healthy_stdout}")
endif()

# ...and a malformed degraded section is a diagnostic, not a crash.
set(bad_degraded ${WORK_DIR}/bad_degraded.json)
file(READ ${healthy_status} snapshot_text)
string(REGEX REPLACE "\"degraded\":{[^}]*}" "\"degraded\":42"
    snapshot_text "${snapshot_text}")
file(WRITE ${bad_degraded} "${snapshot_text}")
execute_process(
    COMMAND ${GBREPORT} status ${bad_degraded}
    OUTPUT_QUIET
    ERROR_VARIABLE stderr_text
    RESULT_VARIABLE rc)
# One line naming the first byte that differs from the writer's rendering.
if(NOT rc EQUAL 2 OR NOT stderr_text MATCHES
        "^gbreport: [^\n]*bad_degraded.json: status: byte [0-9]+: [^\n]*\n$")
    message(FATAL_ERROR
        "gbreport status on a malformed degraded section exited ${rc}:\n"
        "${stderr_text}")
endif()

# --- gbreport audit: the SDC integrity verdict ---------------------------
# 0 = every injected corruption was caught, 1 = at least one escaped,
# 2 = the metrics carry no integrity.* gauges (defenses were off).
set(audit_clean ${WORK_DIR}/audit_clean.json)
file(WRITE ${audit_clean} [[{
  "counters": {},
  "gauges": {
    "integrity.audit_mismatches": 1,
    "integrity.audits": 36,
    "integrity.blacklisted_rigs": 1,
    "integrity.dissents": 2,
    "integrity.quorum_stalemates": 0,
    "integrity.repaired_entries": 2,
    "integrity.replica_executions": 108,
    "integrity.sdc_corrected": 1,
    "integrity.sdc_detected": 3,
    "integrity.sdc_escaped": 0,
    "integrity.sdc_injected": 3,
    "integrity.sdc_outvoted": 2
  },
  "histograms": {}
}
]])
expect_output("sdc audit: 3 injected, 3 detected .2 outvoted, 1 audit-caught, 0 stalemates., 1 corrected, 0 escaped"
    audit --metrics ${audit_clean})
expect_output("verdict: clean -- every injected corruption was caught"
    audit --metrics ${audit_clean})

set(audit_escaped ${WORK_DIR}/audit_escaped.json)
file(WRITE ${audit_escaped} [[{
  "counters": {},
  "gauges": {
    "integrity.sdc_detected": 1,
    "integrity.sdc_escaped": 1,
    "integrity.sdc_injected": 2
  },
  "histograms": {}
}
]])
expect_exit(1 audit --metrics ${audit_escaped})

# Undefended metrics (no integrity.* gauges) are a usage-level error: there
# is nothing to audit, and silence must not read as a clean verdict.
expect_exit(2 audit --metrics ${baseline})
expect_exit(2 audit --metrics ${truncated})
expect_exit(2 audit)

# --- gbreport timeline / alerts: the observatory surface -----------------

# A two-series artifact with one firing drift rule, as the writer renders
# it.
set(timeline ${WORK_DIR}/timeline.json)
file(WRITE ${timeline} [=[{
  "series": {
    "fleet.cache_hit_rate": {"count": 1, "min": 0.5, "max": 0.5, "last": 0.5, "samples": [[4,0.5]], "evicted": {"bounds": [1,10], "counts": [0,0,0], "count": 0, "sum": 0}},
    "vmin.TTT.0.0.0": {"count": 4, "min": 950, "max": 962.5, "last": 962.5, "samples": [[1,950],[2,954],[3,958.5],[4,962.5]], "evicted": {"bounds": [1,10], "counts": [0,0,0], "count": 0, "sum": 0}}
  },
  "alerts": {"rules": 1, "firing": ["vmin-drift:vmin.TTT.0.0.0"], "events": [
    {"tick": 3, "rule": "vmin-drift", "series": "vmin.TTT.0.0.0", "state": "firing", "value": 4.25}
  ]}
}
]=])
expect_output("timeline: 2 series, 5 samples retained" timeline ${timeline})
expect_output("vmin.TTT.0.0.0 +count=4 min=950 max=962.5 last=962.5"
    timeline ${timeline})

# The alert gate exits 1 while anything is firing and names it.
expect_exit(1 alerts ${timeline})
execute_process(
    COMMAND ${GBREPORT} alerts ${timeline}
    OUTPUT_VARIABLE alerts_stdout RESULT_VARIABLE alerts_rc)
if(NOT alerts_stdout MATCHES "FIRING vmin-drift:vmin.TTT.0.0.0")
    message(FATAL_ERROR
        "alerts stdout lacks the firing label:\n${alerts_stdout}")
endif()

# Re-evaluating under --rules nothing crosses gates clean...
set(quiet_rules ${WORK_DIR}/quiet.alert)
file(WRITE ${quiet_rules} "alert ceiling vmin.* above 2000\n")
expect_exit(0 alerts ${timeline} --rules ${quiet_rules})
# ...a rule the artifact's series do cross gates dirty...
set(hot_rules ${WORK_DIR}/hot.alert)
file(WRITE ${hot_rules} "alert drift vmin.* slope 1.5 window 3\n")
expect_exit(1 alerts ${timeline} --rules ${hot_rules})
# ...and a malformed spec is exit 2 with a path:line diagnostic.
set(bad_rules ${WORK_DIR}/bad.alert)
file(WRITE ${bad_rules} "# comment\nalert wobble vmin.* sideways 3\n")
execute_process(
    COMMAND ${GBREPORT} alerts ${timeline} --rules ${bad_rules}
    ERROR_VARIABLE bad_stderr RESULT_VARIABLE bad_rc)
if(NOT bad_rc EQUAL 2)
    message(FATAL_ERROR "malformed rules exited ${bad_rc}, wanted 2")
endif()
if(NOT bad_stderr MATCHES "bad.alert:2: unknown comparator 'sideways'")
    message(FATAL_ERROR
        "rules diagnostic lacks path:line:\n${bad_stderr}")
endif()

# A torn artifact (killed writer) renders what survived, flagged.
file(READ ${timeline} timeline_bytes)
string(LENGTH "${timeline_bytes}" timeline_size)
math(EXPR torn_keep "${timeline_size} * 2 / 3")
string(SUBSTRING "${timeline_bytes}" 0 ${torn_keep} torn_bytes)
set(torn ${WORK_DIR}/torn_timeline.json)
file(WRITE ${torn} "${torn_bytes}")
expect_output("truncated tail: partial write dropped" timeline ${torn})
# ...but its alert section is gone, so the alert gate refuses it.
expect_output("alerts: not read \\(truncated tail\\)" timeline ${torn})
expect_exit(2 alerts ${torn})
expect_exit(2 alerts ${torn} --rules ${quiet_rules})

# Mid-document corruption is a diagnostic, not a salvage.
set(corrupt ${WORK_DIR}/corrupt_timeline.json)
file(WRITE ${corrupt} [=[{
  "series": {
    "vmin.TTT.0.0.0": {"count": "four"}
  }
}
]=])
expect_exit(2 timeline ${corrupt})
expect_exit(2 alerts ${corrupt})
expect_exit(2 timeline ${WORK_DIR}/no_such_timeline.json)
expect_exit(2 alerts)

# --- gbreport status: timeline placeholder vs full section ---------------

# Snapshots with the observatory off render a stable placeholder...
expect_output("timeline: \\(not recorded\\)" status ${healthy_status})
# ...and a timeline-bearing snapshot renders the full line.
set(observed_status ${WORK_DIR}/observed_status.json)
file(WRITE ${WORK_DIR}/drift.alert
    "alert vmin-drift vmin.* slope 1.5 window 3\n")
serve_snapshot(${observed_status} --timeline ${WORK_DIR}/observed.json
    --alerts ${WORK_DIR}/drift.alert --aging 2.0 --epochs 4)
expect_output("timeline: 40 series, 160 samples, 1 rules, 3 firing \\(11 events\\)"
    status ${observed_status})
expect_output("FIRING vmin-drift:vmin.TSS.1.0.0" status ${observed_status})
# A malformed timeline section is a diagnostic, not a crash.
set(bad_timeline_status ${WORK_DIR}/bad_timeline_status.json)
file(READ ${observed_status} snapshot_text)
string(REGEX REPLACE "\"timeline\":{[^}]*}" "\"timeline\":42"
    snapshot_text "${snapshot_text}")
file(WRITE ${bad_timeline_status} "${snapshot_text}")
expect_exit(2 status ${bad_timeline_status})

# Arguments no flag consumed are typos: a misspelled tolerance must not
# compare at the default one, and no subcommand runs past a stray flag
# (each of these inputs is otherwise clean and exits 0).
expect_exit(2 diff ${baseline} ${baseline} --tolerence 0.5)
expect_exit(2 status ${healthy_status} --bogus 3)
expect_exit(2 timeline ${timeline} --bogus)

# --- hand edits of written artifacts --------------------------------------
# Each edit leaves bytes no writer renders: gbreport exits 2 on it rather
# than reading a value the producer never wrote.
set(edits ${WORK_DIR}/edits)
file(MAKE_DIRECTORY ${edits})
serve_snapshot(${edits}/state.json --quorum 3 --audit 4 --epochs 2
    --aging 2.0 --timeline ${edits}/timeline.json
    --alerts ${WORK_DIR}/drift.alert
    --trace ${edits}/trace.json --metrics ${edits}/metrics.json)
foreach(artifact trace metrics timeline state)
    file(READ ${edits}/${artifact}.json ${artifact}_text)
endforeach()
# The unedited artifacts read.
expect_exit(0 critical-path --trace ${edits}/trace.json)
expect_exit(0 diff ${edits}/metrics.json ${edits}/metrics.json)
expect_output("timeline: 40 series" timeline ${edits}/timeline.json)

# expect_edit(<artifact> <name> <regex> <replacement> <gbreport args>):
# the artifact with every <regex> match replaced must exit 2 when
# gbreport reads it as FILE in <gbreport args>.
function(expect_edit artifact name regex replacement)
    string(REGEX REPLACE "${regex}" "${replacement}" edited
        "${${artifact}_text}")
    if(edited STREQUAL "${${artifact}_text}")
        message(FATAL_ERROR "edit ${name} changed nothing in ${artifact}")
    endif()
    set(file ${edits}/${name}.json)
    file(WRITE ${file} "${edited}")
    string(REPLACE "FILE" "${file}" args "${ARGN}")
    expect_exit(2 ${args})
endfunction()

set(read_trace critical-path --trace FILE)
set(read_metrics diff ${edits}/metrics.json FILE)
set(read_timeline timeline FILE)
set(read_state status FILE)

# Members no writer renders.
expect_edit(metrics histogram_member ", \"sum\": " ", \"foo\": 1, \"sum\": "
    ${read_metrics})
expect_edit(timeline evicted_member ", \"sum\": " ", \"foo\": 1, \"sum\": "
    ${read_timeline})
expect_edit(timeline series_member "{\"count\": " "{\"foo\": 1, \"count\": "
    ${read_timeline})
expect_edit(trace event_member "{\"ph\":\"X\"," "{\"ph\":\"X\",\"foo\":1,"
    ${read_trace})
expect_edit(metrics section_member "\n  \"histograms\": "
    "\n  \"extra\": {},\n  \"histograms\": " ${read_metrics})
expect_edit(trace duplicated_tid "(\"tid\":[0-9]+,)" "\\1\\1" ${read_trace})
# Values spelt another way, or of another type.
expect_edit(metrics counter_decimal "(\"fleet.chips\": [0-9]+)" "\\1.0"
    ${read_metrics})
expect_edit(metrics counter_leading_zero "\"fleet.chips\": "
    "\"fleet.chips\": 0" ${read_metrics})
expect_edit(timeline tick_leading_zero "\\[\\[" "[[0" ${read_timeline})
expect_edit(trace pid_5 "\"pid\":0" "\"pid\":5" ${read_trace})
expect_edit(trace cat_7 "\"cat\":\"[a-z]+\"" "\"cat\":7" ${read_trace})
expect_edit(trace ts_exponent "\"ts\":[0-9]+" "\"ts\":1.0e2" ${read_trace})
# Members in another order.
expect_edit(metrics count_sum_swapped
    "\"count\": ([0-9]+), \"sum\": ([0-9]+)"
    "\"sum\": \\2, \"count\": \\1" ${read_metrics})
expect_edit(timeline evicted_count_sum_swapped
    "\"count\": ([0-9]+), \"sum\": ([0-9]+)"
    "\"sum\": \\2, \"count\": \\1" ${read_timeline})
# Whitespace: a missing trailing newline (a timeline without one is a torn
# tail instead), or all of it stripped.
expect_edit(trace trace_no_newline "\n$" "" ${read_trace})
expect_edit(metrics metrics_no_newline "\n$" "" ${read_metrics})
expect_edit(state state_no_newline "\n$" "" ${read_state})
expect_edit(trace trace_stripped "\n" "" ${read_trace})
expect_edit(metrics metrics_stripped "[ \n]" "" ${read_metrics})
expect_edit(timeline timeline_stripped "[ \n]" "" ${read_timeline})
# A rule count that is no count, and a counter written twice.
expect_edit(timeline rules_x "\"rules\": [0-9]+" "\"rules\": \"x\""
    ${read_timeline})

# A written timeline with alerts firing, cut by its last byte, is a torn
# tail: the alert gate must not pass it.
expect_exit(1 alerts ${WORK_DIR}/observed.json)
file(READ ${WORK_DIR}/observed.json observed_text)
string(REGEX REPLACE "\n$" "" cut_text "${observed_text}")
file(WRITE ${edits}/observed_cut.json "${cut_text}")
expect_output("truncated tail" timeline ${edits}/observed_cut.json)
expect_exit(2 alerts ${edits}/observed_cut.json)
expect_edit(metrics duplicated_counter "(\n    \"fleet.chips\": [0-9]+,)"
    "\\1\\1" ${read_metrics})
