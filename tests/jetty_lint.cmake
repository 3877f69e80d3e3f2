# Contract of tools/jetty_lint, the in-repo invariant checker:
#
#   1. Every rule family fires on its planted fixture violation with the
#      rule name and file:line (tests/lint_fixtures/<family>/ trees) —
#      including the serialization-completeness check catching a counter
#      deliberately omitted from its X-macro list, for both the one-arg
#      disk-cache lists and the two-arg shard envelope lists.
#   2. The escape hatch parses: a justified allow() suppresses (and only
#      then); a missing justification, an unknown rule, and a stale
#      annotation are all findings themselves.
#   3. The real tree is lint-clean (exit 0) — so removing any counter
#      from a run_result_json.cc X-macro list, or adding a stats member
#      without serializing it, turns THIS ctest red.
#   4. --json emits a structured api::Report with the findings.
#
# Run as:
#   cmake -DLINT=<jetty_lint> -DFIXTURES=<tests/lint_fixtures>
#         -DSOURCE=<repo root> -DWORK=<scratch dir> -P jetty_lint.cmake
foreach(var LINT FIXTURES SOURCE WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()
file(MAKE_DIRECTORY ${WORK})

# Run the tool over one fixture root; assert the exit code and that every
# expected pattern appears in stdout.
function(lint_expect root want_rc)
  execute_process(
    COMMAND ${LINT} --root ${root}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${want_rc})
    message(FATAL_ERROR
            "jetty_lint --root ${root}: expected exit ${want_rc}, got "
            "${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  foreach(pattern ${ARGN})
    if(NOT out MATCHES "${pattern}")
      message(FATAL_ERROR
              "jetty_lint --root ${root}: wanted '${pattern}' in:\n${out}")
    endif()
  endforeach()
endfunction()

# ---- 1. one planted violation per rule family, named with file:line ----
lint_expect(${FIXTURES}/determinism 1
            "src/sim/bad_entropy.cc:12: error: \\[determinism\\]"
            "src/sim/bad_entropy.cc:18: error: \\[determinism\\]")

lint_expect(${FIXTURES}/unordered 1
            "src/core/bad_container.cc:10: error: \\[unordered\\]")

lint_expect(${FIXTURES}/atomic 1
            "src/io/bad_write.cc:13: error: \\[atomic-write\\] ofstream"
            "src/io/bad_write.cc:20: error: \\[atomic-write\\] fopen")

lint_expect(${FIXTURES}/fatal 1
            "src/engine/bad_exit.cc:13: error: \\[no-fatal\\] exit"
            "src/engine/bad_exit.cc:15: error: \\[no-fatal\\] abort")

lint_expect(${FIXTURES}/checked_number 1
            "src/util/bad_env.cc:12: error: \\[checked-number\\] atoi"
            "src/util/bad_env.cc:18: error: \\[checked-number\\] atof"
            "bench/bad_flag.cc:7: error: \\[checked-number\\] atoll"
            "src/util/bad_budget.cc:12: error: \\[checked-number\\] strtoull")

# The X-macro completeness check: the omitted counter is named in both
# directions (missing member, stale list entry).
lint_expect(${FIXTURES}/serialization 1
            "BusStats::upgrades is missing from JETTY_BUS_STAT_FIELDS"
            "src/sim/interconnect.hh:14"
            "names 'snoops', which is not a scalar member")

# The shard envelope variant: two-arg X(name, kind) entries parse, the
# omitted field is named in both directions plus by the serializer-TU
# reference check, and a string member present in the list stays silent
# (strings count as scalar). The pinned count of exactly 3 findings is
# the regression guard: if two-arg parsing broke, every in-sync field
# would be reported missing as well.
lint_expect(${FIXTURES}/shard_serialization 1
            "ShardResponse::wallSeconds is missing from JETTY_SHARD_RESPONSE_FIELDS"
            "src/dist/shard_msg.hh:16"
            "names 'latency', which is not a scalar member"
            "ShardResponse::wallSeconds is never referenced in shard.cc"
            "jetty_lint: 3 findings")

# Negative controls must NOT fire, pinned by exact finding counts:
#   determinism: steady_clock + time(with-arg) (src/sim/ok_clock.cc)
#   unordered:   hash map outside the deterministic layers (tools/ok_hash.cc)
#   atomic:      read-mode fopen (bad_write.cc:26) and the allowlisted
#                sanctioned implementation (src/util/atomic_file.cc)
#   fatal:       exit() under tools/ (tools/ok_cli.cc)
#   checked_number: a project method named atoi (tools/ok_parse.cc) and
#                   strtoull with an end pointer (src/util/bad_budget.cc)
lint_expect(${FIXTURES}/determinism 1 "jetty_lint: 2 findings")
lint_expect(${FIXTURES}/unordered 1 "jetty_lint: 2 findings")
lint_expect(${FIXTURES}/atomic 1 "jetty_lint: 2 findings")
lint_expect(${FIXTURES}/fatal 1 "jetty_lint: 2 findings")
lint_expect(${FIXTURES}/checked_number 1 "jetty_lint: 4 findings")

# ---- 2. escape-hatch parsing ------------------------------------------
lint_expect(${FIXTURES}/escape_ok 0 "clean")
lint_expect(${FIXTURES}/escape_bad 1
            "bad_escapes.cc:4: error: \\[escape\\] allow\\(unordered\\) needs a justification"
            "bad_escapes.cc:4: error: \\[unordered\\]"
            "bad_escapes.cc:9: error: \\[escape\\] unknown lint rule 'speed'"
            "bad_escapes.cc:12: error: \\[escape\\] stale escape")

# ---- 3. the real tree is clean ----------------------------------------
lint_expect(${SOURCE} 0 "clean")

# ---- 4. --json: a structured report of the findings -------------------
execute_process(
  COMMAND ${LINT} --root ${FIXTURES}/serialization
          --json ${WORK}/lint-report.json
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "--json run: expected exit 1, got ${rc}")
endif()
file(READ ${WORK}/lint-report.json report)
foreach(pattern "\"jetty_report\": 1" "\"kind\": \"lint\""
        "\"clean\": false" "\"rule\": \"serialization\""
        "\"file\": \"src/sim/interconnect.hh\"")
  string(FIND "${report}" "${pattern}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "--json report is missing '${pattern}':\n${report}")
  endif()
endforeach()

message(STATUS "jetty_lint contract OK")
