# Spec contract of jetty_cli (ISSUE 5 acceptance): for every simulating
# subcommand, `--dump-spec` output fed back through `--spec` resolves to
# the bit-identical spec; a `--spec` run re-executes bit-identically; and
# the committed example specs stay loadable. Run as:
#   cmake -DCLI=<path-to-jetty_cli> -DEXAMPLES=<examples dir> -P cli_spec.cmake
if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to jetty_cli>")
endif()
if(NOT DEFINED EXAMPLES)
  message(FATAL_ERROR "pass -DEXAMPLES=<path to the examples directory>")
endif()

set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_spec_work)
file(MAKE_DIRECTORY ${work})

function(run_cli out_var)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "jetty_cli ${pretty} failed (${rc}): ${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# --dump-spec -> --spec -> --dump-spec must be a fixed point.
function(check_dump_roundtrip name cmd)
  run_cli(dump1 ${cmd} ${ARGN} --dump-spec)
  file(WRITE ${work}/${name}.spec.json "${dump1}")
  run_cli(dump2 ${cmd} --spec ${work}/${name}.spec.json --dump-spec)
  if(NOT dump1 STREQUAL dump2)
    message(FATAL_ERROR
            "jetty_cli ${cmd}: --dump-spec is not a fixed point under "
            "--spec\nfirst:\n${dump1}\nsecond:\n${dump2}")
  endif()
endfunction()

check_dump_roundtrip(run run --app fm --scale 0.01 --buses 2)
check_dump_roundtrip(sweep sweep --apps lu,fm --procs 4 --buses 1,2
                     --scale 0.01 --no-subblock)
check_dump_roundtrip(bench bench --app lu --scale 0.01 --batch 64
                     --repeat 1)
check_dump_roundtrip(fuzz fuzz --rounds 2 --refs 128 --buses 2)

# replay of a single-section capture: the processor count is not
# inferable from the file, so the dumped spec's machine.procs must
# carry it (regression: --spec used to fall back to 4).
run_cli(cap capture --app lu --proc 0 --limit 4096 --out ${work}/one.jtt)
check_dump_roundtrip(replay replay --in ${work}/one.jtt --procs 8)
run_cli(rdump replay --spec ${work}/replay.spec.json --dump-spec)
if(NOT rdump MATCHES "\"procs\": 8")
  message(FATAL_ERROR
          "replay --spec lost the recorded processor count:\n${rdump}")
endif()

# fuzz --repro: the sidecar's spec is the base the flags overlay. A
# 2-processor capture plus a hand-written sidecar pinning an explicit
# machine and seed 99 ...
run_cli(rcap capture --app lu --procs 2 --limit 2048 --out ${work}/R.jtt)
file(WRITE ${work}/R.jtt.json [=[{"spec": {"jetty_spec": 1,
  "machine": {"procs": 2, "buses": 2, "subblocked": true,
              "l1": {"size_bytes": 2048, "assoc": 1, "block_bytes": 32},
              "l2": {"size_bytes": 16384, "assoc": 2, "block_bytes": 64,
                     "subblocks": 2},
              "wb_entries": 4, "phys_addr_bits": 40},
  "filters": ["EJ-16x2"],
  "fuzz": {"seed": 99, "rounds": 3, "refs_per_proc": 512,
           "audit_every": 64, "randomize_buses": false}}}]=])
function(expect_in text what)
  foreach(pattern ${ARGN})
    if(NOT text MATCHES "${pattern}")
      message(FATAL_ERROR "${what}: wanted '${pattern}' in:\n${text}")
    endif()
  endforeach()
endfunction()
# ... replays on that machine with that seed ...
run_cli(r1 fuzz --repro ${work}/R.jtt --dump-spec)
expect_in("${r1}" "fuzz --repro"
          "\"size_bytes\": 2048" "\"size_bytes\": 16384" "\"buses\": 2"
          "\"procs\": 2" "\"seed\": 99" "\"EJ-16x2\"")
# ... and explicit flags win over it, the machine untouched.
run_cli(r2 fuzz --repro ${work}/R.jtt --seed 7 --filters EJ-8x2 --dump-spec)
expect_in("${r2}" "fuzz --repro --seed 7 --filters EJ-8x2"
          "\"size_bytes\": 2048" "\"seed\": 7" "\"EJ-8x2\"")
if(r2 MATCHES "EJ-16x2|\"seed\": 99")
  message(FATAL_ERROR "fuzz --repro: the sidecar outvoted a flag:\n${r2}")
endif()
run_cli(r3 fuzz --repro ${work}/R.jtt)
expect_in("${r3}" "fuzz --repro (replay)" "clean \\(2 streams\\)")

# A --spec run re-executes bit-identically (separate processes, so no
# run-cache sharing; every printed number is simulated, not timed).
run_cli(out1 run --spec ${work}/run.spec.json --scale 0.01)
run_cli(out2 run --spec ${work}/run.spec.json --scale 0.01)
if(NOT out1 STREQUAL out2)
  message(FATAL_ERROR
          "jetty_cli run --spec re-ran differently:\n${out1}\nvs\n${out2}")
endif()

# The committed example specs resolve through their natural subcommand.
run_cli(q run --spec ${EXAMPLES}/quickstart.spec.json --dump-spec)
run_cli(p sweep --spec ${EXAMPLES}/paper_figure4.spec.json --dump-spec)
run_cli(z fuzz --spec ${EXAMPLES}/fuzz_smoke.spec.json --dump-spec)

# A paper table's dumped spec is a sweep spec: sweep --spec resolves it
# to a fixed point, and figure 4 at scale 0.25 is the committed example.
run_cli(pdump paper figure4 --scale 0.01 --dump-spec)
file(WRITE ${work}/paper.spec.json "${pdump}")
run_cli(pdump2 sweep --spec ${work}/paper.spec.json --dump-spec)
if(NOT pdump STREQUAL pdump2)
  message(FATAL_ERROR "paper figure4 --dump-spec is not a fixed point of "
                      "sweep --spec:\n${pdump}\nvs\n${pdump2}")
endif()
run_cli(pfig4 paper figure4 --scale 0.25 --dump-spec)
if(NOT pfig4 STREQUAL p)
  message(FATAL_ERROR "paper figure4 --scale 0.25 differs from the "
                      "resolved paper_figure4.spec.json:\n${pfig4}\nvs\n${p}")
endif()

# ... and the quickstart spec actually runs (scaled down for CI).
run_cli(smoke run --spec ${EXAMPLES}/quickstart.spec.json --scale 0.01)

message(STATUS "jetty_cli spec contract holds")
