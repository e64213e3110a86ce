# Runs the fault-plan differential sweep twice in separate processes and
# fails unless the outputs are byte-identical. Invoked by ctest as
#   cmake -DDIFF=<path-to-fsio_diff> -P run_determinism_check.cmake
if(NOT DEFINED DIFF)
  message(FATAL_ERROR "pass -DDIFF=<path to fsio_diff>")
endif()

set(args --fault-plan all --seeds 2 --ops 600)

execute_process(COMMAND ${DIFF} ${args} OUTPUT_VARIABLE out_a RESULT_VARIABLE rc_a)
if(NOT rc_a EQUAL 0)
  message(FATAL_ERROR "first run failed with exit code ${rc_a}:\n${out_a}")
endif()

execute_process(COMMAND ${DIFF} ${args} OUTPUT_VARIABLE out_b RESULT_VARIABLE rc_b)
if(NOT rc_b EQUAL 0)
  message(FATAL_ERROR "second run failed with exit code ${rc_b}:\n${out_b}")
endif()

if(NOT out_a STREQUAL out_b)
  message(FATAL_ERROR "same-seed runs produced different output")
endif()
message(STATUS "process determinism OK (${DIFF} ${args})")
