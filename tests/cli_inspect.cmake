# `pdrflow inspect` of a built partial: it must exit 0 and print the
# one-line summary ending "crc ok". Invoked by the cli_inspect ctest entry
# with -DPDRFLOW=<path> -DBITSTREAM=<file>.
execute_process(COMMAND ${PDRFLOW} inspect ${BITSTREAM} --device XC2V2000
                OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pdrflow inspect ${BITSTREAM} failed (exit ${rc}):\n${err}")
endif()
if(NOT out MATCHES "crc ok")
  message(FATAL_ERROR "pdrflow inspect ${BITSTREAM} printed no 'crc ok':\n${out}")
endif()
message(STATUS "pdrflow inspect ${BITSTREAM}: crc ok")
