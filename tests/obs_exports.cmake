# Pins the bytes `pdrflow` writes through --trace-out / --metrics-out.
# Each leg runs one command in WORK_DIR, once per --jobs value it lists
# (or once, without --jobs). The trace and metrics files must be
# byte-identical across those runs and must match MANIFEST, one
# "<sha256>  <leg>.trace.json|<leg>.metrics.json" line per file
# (`sha256sum` format). Legs marked MASK record a Modular Design run,
# whose wall-clock fields (the ts/dur of flow_stage spans and the
# flow.last_run_us gauge) are zeroed before comparing and hashing.
# On a mismatch the script writes WORK_DIR/obs_exports.actual.sha256.
# Invoked by the cli_obs_exports ctest entry with -DPDRFLOW=<path>
# -DSOURCE_DIR=<repo> -DWORK_DIR=<dir> -DMANIFEST=<file>.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

set(produced "")
set(failures "")

function(mask_wall_clock var)
  set(text "${${var}}")
  string(REGEX REPLACE
         "(\"cat\":\"flow_stage\",\"ph\":\"X\",\"pid\":[0-9]+,\"tid\":[0-9]+),\"ts\":[0-9.]+,\"dur\":[0-9.]+"
         "\\1,\"ts\":0,\"dur\":0" text "${text}")
  string(REGEX REPLACE "(\"flow.last_run_us\":{\"type\":\"gauge\",\"value\":)[-+0-9.e]+"
         "\\10" text "${text}")
  set(${var} "${text}" PARENT_SCOPE)
endfunction()

# run_leg(<leg> [MASK] [JOBS j...] ARGS <pdrflow arguments...>)
function(run_leg leg)
  cmake_parse_arguments(PARSE_ARGV 1 LEG "MASK" "" "JOBS;ARGS")
  set(runs ${LEG_JOBS})
  if(NOT runs)
    set(runs serial)
  endif()
  foreach(kind trace metrics)
    set(first_${kind} "")
  endforeach()
  foreach(run IN LISTS runs)
    set(jobs_flag "")
    if(NOT run STREQUAL "serial")
      set(jobs_flag --jobs ${run})
    endif()
    execute_process(COMMAND ${PDRFLOW} ${LEG_ARGS} ${jobs_flag}
                            --trace-out ${leg}.${run}.trace.json
                            --metrics-out ${leg}.${run}.metrics.json
                    WORKING_DIRECTORY ${WORK_DIR}
                    OUTPUT_QUIET RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${leg} (${run}) failed (exit ${rc}):\n${err}")
    endif()
    foreach(kind trace metrics)
      file(READ ${WORK_DIR}/${leg}.${run}.${kind}.json content)
      if(LEG_MASK)
        mask_wall_clock(content)
      endif()
      if(first_${kind} STREQUAL "")
        set(first_${kind} "${content}")
        file(WRITE ${WORK_DIR}/${leg}.${kind}.json "${content}")
        list(APPEND produced ${leg}.${kind}.json)
      elseif(NOT content STREQUAL first_${kind})
        string(APPEND failures "  ${leg}.${kind}.json differs at --jobs ${run}\n")
      endif()
    endforeach()
  endforeach()
  set(produced ${produced} PARENT_SCOPE)
  set(failures "${failures}" PARENT_SCOPE)
endfunction()

set(examples ${SOURCE_DIR}/examples)
run_leg(serve JOBS 1 4 8
        ARGS serve --requests ${examples}/fleet.requests --faults ${examples}/fleet.faults)
run_leg(sweep JOBS 1 4 8 ARGS sweep --symbols 512)
run_leg(simulate_faults MASK ARGS simulate --symbols 512 --faults ${examples}/radio.faults)
run_leg(sweep_faults MASK JOBS 1 4 8 ARGS sweep --faults ${examples}/radio.faults)

file(STRINGS ${MANIFEST} lines)
set(expected "")
set(actual "")
foreach(name IN LISTS produced)
  file(SHA256 ${WORK_DIR}/${name} got)
  string(APPEND actual "${got}  ${name}\n")
endforeach()
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "malformed manifest line in ${MANIFEST}: '${line}'")
  endif()
  set(want ${CMAKE_MATCH_1})
  set(name ${CMAKE_MATCH_2})
  list(APPEND expected ${name})
  list(FIND produced ${name} index)
  if(index EQUAL -1)
    string(APPEND failures "  missing  ${name}\n")
    continue()
  endif()
  file(SHA256 ${WORK_DIR}/${name} got)
  if(NOT got STREQUAL want)
    string(APPEND failures "  changed  ${name} (sha256 ${got})\n")
  endif()
endforeach()
foreach(name IN LISTS produced)
  list(FIND expected ${name} index)
  if(index EQUAL -1)
    string(APPEND failures "  extra    ${name}\n")
  endif()
endforeach()

if(failures)
  file(WRITE ${WORK_DIR}/obs_exports.actual.sha256 "${actual}")
  message(FATAL_ERROR "exported trace/metrics differ (actual manifest: "
                      "${WORK_DIR}/obs_exports.actual.sha256):\n${failures}")
endif()
list(LENGTH produced count)
message(STATUS "all ${count} exported trace/metrics files match ${MANIFEST}")
