# Generated-artifact oracle for examples/codegen_flow: runs the example in
# a fresh WORK_DIR (it writes ./codegen_out/) and requires exactly the
# files named in MANIFEST, each with the listed SHA-256. MANIFEST holds
# one "<sha256>  <file>" line per artifact (`sha256sum` format). Invoked
# by the codegen_flow_artifacts ctest entry with -DPROGRAM=<path>
# -DWORK_DIR=<dir> -DMANIFEST=<file>.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${PROGRAM}
                WORKING_DIRECTORY ${WORK_DIR}
                OUTPUT_QUIET RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} failed (exit ${rc}):\n${err}")
endif()

file(STRINGS ${MANIFEST} lines)
set(expected_files "")
set(mismatches "")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "malformed manifest line in ${MANIFEST}: '${line}'")
  endif()
  set(want ${CMAKE_MATCH_1})
  set(name ${CMAKE_MATCH_2})
  list(APPEND expected_files ${name})
  set(path ${WORK_DIR}/codegen_out/${name})
  if(NOT EXISTS ${path})
    string(APPEND mismatches "  missing  ${name}\n")
    continue()
  endif()
  file(SHA256 ${path} got)
  if(NOT got STREQUAL want)
    string(APPEND mismatches "  changed  ${name} (sha256 ${got})\n")
  endif()
endforeach()

file(GLOB produced RELATIVE ${WORK_DIR}/codegen_out ${WORK_DIR}/codegen_out/*)
foreach(name IN LISTS produced)
  list(FIND expected_files ${name} index)
  if(index EQUAL -1)
    string(APPEND mismatches "  extra    ${name}\n")
  endif()
endforeach()

if(mismatches)
  message(FATAL_ERROR "codegen_out differs from ${MANIFEST}:\n${mismatches}")
endif()
list(LENGTH expected_files count)
message(STATUS "codegen_out: all ${count} artifacts match ${MANIFEST}")
