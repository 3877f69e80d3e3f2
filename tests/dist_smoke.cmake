# Multi-process smoke for the distributed sweep subsystem (ISSUE 10
# acceptance): a coordinator with two forked `jetty_cli worker`
# processes — one killed mid-shard — must complete the campaign, the
# same ledger must resume it without re-simulating anything, and both
# the resumed and the plain single-process Report must be byte-identical
# to the distributed one. One directory given as both --ledger and
# --cache-dir must resume the same way, and a worker must answer the
# service verbs of a serve session on stdin/stdout. Run as:
#   cmake -DCLI=<jetty_cli> -DSPEC=<distributed.spec.json> -DWORK=<dir>
#         -P dist_smoke.cmake
foreach(var CLI SPEC WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

# Ledger and cache persistence is the point of the test — start from a
# clean slate so a re-run of this ctest sees the same cold-start world.
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run_cli out_var)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGN})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "jetty_cli ${pretty} failed (${rc}):\n${out}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_identical a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ byte-for-byte")
  endif()
endfunction()

# ---- 1. distributed campaign with an injected mid-shard kill ----------
# Worker 0 dies (_exit) after receiving its first shard request; the
# coordinator must respawn capacity, retry the orphaned shard, and still
# finish with exit 0.
run_cli(dist sweep --spec ${SPEC} --workers 2 --kill-worker-after 1
        --retries 2 --ledger ${WORK}/ledger --cache-dir ${WORK}/cache
        --json ${WORK}/dist.json --events ${WORK}/events.json)

# The kill must actually have landed: the structured event stream names
# the death and the retry.
file(READ ${WORK}/events.json events)
foreach(pattern "worker_died" "retried")
  string(FIND "${events}" "${pattern}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "no '${pattern}' event — the injected kill did not land:\n"
            "${events}")
  endif()
endforeach()

# ---- 2. resume from the ledger: nothing re-simulates ------------------
run_cli(resumed sweep --spec ${SPEC} --workers 2
        --ledger ${WORK}/ledger --cache-dir off
        --json ${WORK}/resumed.json)
if(NOT resumed MATCHES "resumed 4")
  message(FATAL_ERROR
          "ledger resume re-dispatched finished shards:\n${resumed}")
endif()
expect_identical(${WORK}/dist.json ${WORK}/resumed.json
                 "resumed Report")

# ---- 3. byte-identity against the single-process sweep ----------------
# The distributed run (above, cold) published every cell to the shared
# run cache; the plain sweep answers from it, so identical bytes prove
# the distributed merge changed nothing — not even a timing field.
run_cli(direct sweep --spec ${SPEC} --cache-dir ${WORK}/cache
        --json ${WORK}/direct.json)
expect_identical(${WORK}/dist.json ${WORK}/direct.json
                 "single-process Report")

# ---- 4. one directory as both stores ----------------------------------
# A ledger directory is a disk-cache root, so one directory can serve as
# both: the workers' cache entries and the coordinator's journal share
# it, and a resume with the cache off still finds every cell.
run_cli(one sweep --spec ${SPEC} --workers 2
        --ledger ${WORK}/one --cache-dir ${WORK}/one
        --json ${WORK}/one.json)
run_cli(one_resumed sweep --spec ${SPEC} --workers 2
        --ledger ${WORK}/one --cache-dir off
        --json ${WORK}/one_resumed.json)
if(NOT one_resumed MATCHES "resumed 4")
  message(FATAL_ERROR
          "resume from a shared ledger/cache root re-dispatched "
          "finished shards:\n${one_resumed}")
endif()
expect_identical(${WORK}/one.json ${WORK}/one_resumed.json
                 "shared-root resumed Report")

# ---- 5. a worker is a service session --------------------------------
# `jetty_cli worker` answers the serve verbs on stdin/stdout: a ping, a
# stats and a malformed line get three jetty_response lines, and EOF on
# stdin ends the session cleanly.
file(WRITE ${WORK}/session.in
  "{\"jetty_request\": 1, \"verb\": \"ping\"}\n"
  "{\"jetty_request\": 1, \"verb\": \"stats\"}\n"
  "this is not json\n")
execute_process(
  COMMAND ${CLI} worker --cache-dir off
  INPUT_FILE ${WORK}/session.in
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE session
  ERROR_VARIABLE session_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "jetty_cli worker session failed (${rc}):\n${session}\n"
          "${session_err}")
endif()
string(REGEX MATCHALL "[^\n]+" lines "${session}")
list(LENGTH lines nlines)
if(NOT nlines EQUAL 3)
  message(FATAL_ERROR
          "worker session: expected 3 response lines, got ${nlines}:\n"
          "${session}")
endif()
set(want_0 "\"pong\":true")
set(want_1 "\"ok\":true,\"simulations\":")
set(want_2 "\"ok\":false,\"error\":\"request parse error")
foreach(i 0 1 2)
  list(GET lines ${i} line)
  string(FIND "${line}" "{\"jetty_response\":1," at_envelope)
  string(FIND "${line}" "${want_${i}}" at_want)
  if(NOT at_envelope EQUAL 0 OR at_want EQUAL -1)
    message(FATAL_ERROR
            "worker session: response ${i} lacks '${want_${i}}':\n${line}")
  endif()
endforeach()

message(STATUS "distributed sweep smoke OK")
