# Black-box check of the fleet-service determinism contract: the same
# request log (with a fault campaign armed) drained serially and on 4/8
# workers must print byte-identical stdout. A second leg bounds the fleet
# cache to 100000 bytes, which holds one of the two 66932-byte case-study
# modules but not both, so the drain also evicts. Invoked by the
# cli_serve_determinism ctest entry with -DPDRFLOW=<path> -DSOURCE_DIR=<repo>.
set(requests ${SOURCE_DIR}/examples/fleet.requests)
set(faults ${SOURCE_DIR}/examples/fleet.faults)

# Runs serve with `extra` flags at jobs 1, 4 and 8 and fails unless the
# three stdouts match; leaves the jobs-1 stdout in `out_var`.
function(check_serve label out_var)
  foreach(jobs 1 4 8)
    execute_process(COMMAND ${PDRFLOW} serve --requests ${requests} --faults ${faults}
                            ${ARGN} --jobs ${jobs}
                    OUTPUT_VARIABLE out_${jobs} RESULT_VARIABLE rc_${jobs}
                    ERROR_VARIABLE err_${jobs})
    if(NOT rc_${jobs} EQUAL 0)
      message(FATAL_ERROR "${label}: serve --jobs ${jobs} failed (exit ${rc_${jobs}}):\n"
                          "${err_${jobs}}")
    endif()
  endforeach()
  foreach(jobs 4 8)
    if(NOT out_1 STREQUAL out_${jobs})
      message(FATAL_ERROR "${label}: serve --jobs ${jobs} stdout differs from --jobs 1:\n"
                          "--- jobs 1 ---\n${out_1}\n--- jobs ${jobs} ---\n${out_${jobs}}")
    endif()
  endforeach()
  set(${out_var} "${out_1}" PARENT_SCOPE)
endfunction()

check_serve("unbounded cache" unbounded)
check_serve("--cache 100000" bounded --cache 100000)
if(NOT bounded MATCHES "evictions ([0-9]+)" OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "--cache 100000: expected evictions > 0:\n${bounded}")
endif()
message(STATUS "serve stdout byte-identical at jobs=1, 4 and 8, unbounded and with "
               "${CMAKE_MATCH_1} eviction(s)")
