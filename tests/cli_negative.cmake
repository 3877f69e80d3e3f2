# Negative-path contract of jetty_cli's command line: every bad flag or
# value exits non-zero with a diagnostic that names the flag. Filter
# specs fail through FilterRegistry::describeFailure (unknown family =>
# the valid-family list; malformed member => the family's grammar),
# other spec fields through the spec schema's reason, a flag outside
# the verb's table as unknown, and a local value that is not of its type
# as garbage. Run as:
#   cmake -DCLI=<path-to-jetty_cli> -P cli_negative.cmake
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to jetty_cli>")
endif()

function(expect_failure expected_pattern)
  # ARGN is the jetty_cli argument list.
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  if(rc EQUAL 0)
    message(FATAL_ERROR
            "jetty_cli ${pretty}: expected a non-zero exit, got 0")
  endif()
  if(NOT err MATCHES "${expected_pattern}")
    message(FATAL_ERROR
            "jetty_cli ${pretty}: stderr did not explain the failure "
            "(wanted '${expected_pattern}', got: ${err})")
  endif()
endfunction()

# Unknown family: the registry must list the valid families.
expect_failure("unknown filter family"
                      run --app lu --scale 0.001 --filters BOGUS-1)
expect_failure("unknown filter family"
                      sweep --apps lu --scale 0.001 --filters BOGUS-1)
expect_failure("unknown filter family"
                      bench --app lu --scale 0.001 --filters BOGUS-1)
expect_failure("unknown filter family"
                      fuzz --rounds 1 --refs 64 --filters BOGUS-1)

# Malformed member of a known family: the family's grammar must appear.
expect_failure("EJ-<sets>x<assoc>"
                      bench --app lu --scale 0.001 --filters EJ-banana)
expect_failure("EJ-<sets>x<assoc>"
                      run --app lu --scale 0.001 --filters EJ-banana)

# Bad --buses values fail with the schema's range, after the flag.
expect_failure("--buses 0: .*out of range"
               run --app lu --scale 0.001 --buses 0)
expect_failure("--buses 4,0: .*out of range"
               sweep --apps lu --scale 0.001 --buses 4,0)

# A flag outside the verb's table is rejected, not ignored.
expect_failure("unknown flag '--app'" sweep --app lu)
expect_failure("unknown flag '--apps'" run --apps fm)
expect_failure("unknown flag '--filter'" run --filter BOGUS-1)
expect_failure("unknown flag '--foo'" apps --foo)

# A local value that is not of its type is garbage, not 0.
set(out ${CMAKE_CURRENT_BINARY_DIR}/cli_negative.jtt)
expect_failure("--jobs abc: expected a count" sweep --jobs abc)
expect_failure("--scale abc: expected a finite number > 0"
               capture --app lu --out ${out} --scale abc)
expect_failure("--scale -1: expected a finite number > 0"
               capture --app lu --out ${out} --scale -1)
expect_failure("--limit abc: expected a count"
               capture --app lu --out ${out} --limit abc)
expect_failure("--proc x: expected a count"
               capture --app lu --out ${out} --proc x)

# paper: an unknown table names the valid set, a flag outside the verb's
# table is rejected, and --scale fails with the schema's reason.
expect_failure("unknown table 'figure3' \\(valid: figure2, figure4, .*, all\\)"
               paper figure3)
expect_failure("unknown flag '--filters'" paper figure4 --filters EJ-32x4)
expect_failure("--scale 0: spec: workload.scale" paper figure4 --scale 0)

# Two workloads: the diagnostic names both flags.
expect_failure("--app lu --in F: .*mutually exclusive"
               bench --app lu --in F)

message(STATUS "jetty_cli negative-path contract holds")
