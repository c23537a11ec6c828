# Black-box behaviour oracle: runs `<PROGRAM> <ARGS>` from the repository
# root and requires exit 0 and stdout byte-identical to a committed golden
# file. A golden may change only together with a CHANGES.md line saying
# why. Invoked by the cli_golden_* and regen_golden_* ctest entries with
# -DPROGRAM=<path> -DSOURCE_DIR=<repo> -DGOLDEN=<file> and, optionally,
# -DARGS="<space-separated args>" (paths in ARGS are relative to the
# repository root).
get_filename_component(name ${PROGRAM} NAME)
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${name} ${ARGS} failed (exit ${rc}):\n${err}")
endif()
file(READ ${GOLDEN} expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "${name} ${ARGS} stdout differs from ${GOLDEN}:\n"
                      "--- expected ---\n${expected}\n--- actual ---\n${out}")
endif()
message(STATUS "${name} ${ARGS} stdout matches ${GOLDEN}")
