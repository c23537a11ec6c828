# `bench_suite --suite <name>` runs and writes one suite only, and an
# unknown suite name is an error. Invoked by the bench_suite_one_suite
# ctest entry with -DBENCH_SUITE=<path> -DOUT_DIR=<dir>.
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})

execute_process(COMMAND ${BENCH_SUITE} --smoke --suite floorplan --out-dir ${OUT_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_suite --suite floorplan exited ${rc}:\n${out}\n${err}")
endif()
file(GLOB written RELATIVE ${OUT_DIR} ${OUT_DIR}/*)
if(NOT written STREQUAL "BENCH_floorplan.json")
  message(FATAL_ERROR "--suite floorplan wrote [${written}], expected [BENCH_floorplan.json]")
endif()

execute_process(COMMAND ${BENCH_SUITE} --smoke --suite floorplans --out-dir ${OUT_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "bench_suite accepted the unknown suite 'floorplans'")
endif()
if(NOT err MATCHES "unknown --suite 'floorplans'")
  message(FATAL_ERROR "unexpected error for an unknown suite:\n${err}")
endif()
file(GLOB written RELATIVE ${OUT_DIR} ${OUT_DIR}/*)
if(NOT written STREQUAL "BENCH_floorplan.json")
  message(FATAL_ERROR "a rejected --suite wrote [${written}]")
endif()
