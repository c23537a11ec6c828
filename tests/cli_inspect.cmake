# `pdrflow inspect` of a built bitstream: it must exit 0, print the
# one-line summary ending "crc ok" and name every packet's register (no
# "?" cell). With -DREGISTER=<name> the packet table must list that
# register. Invoked by the cli_inspect* ctest entries with
# -DPDRFLOW=<path> -DBITSTREAM=<file>.
execute_process(COMMAND ${PDRFLOW} inspect ${BITSTREAM} --device XC2V2000
                OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pdrflow inspect ${BITSTREAM} failed (exit ${rc}):\n${err}")
endif()
if(NOT out MATCHES "crc ok")
  message(FATAL_ERROR "pdrflow inspect ${BITSTREAM} printed no 'crc ok':\n${out}")
endif()
if(out MATCHES "\\| \\? ")
  message(FATAL_ERROR "pdrflow inspect ${BITSTREAM} printed an unnamed register:\n${out}")
endif()
if(DEFINED REGISTER AND NOT out MATCHES "\\| ${REGISTER} ")
  message(FATAL_ERROR "pdrflow inspect ${BITSTREAM} listed no ${REGISTER} packet:\n${out}")
endif()
message(STATUS "pdrflow inspect ${BITSTREAM}: crc ok")
