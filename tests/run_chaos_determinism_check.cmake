# Chaos-matrix determinism: the same seed must produce byte-identical
# output across separate processes AND across worker-pool sizes (--jobs=1
# vs --jobs=4 — slot-per-cell reports emitted in cell order make a parallel
# matrix byte-identical to a serial one). Invoked by ctest as
#   cmake -DCHAOS=<path-to-fsio_chaos> [-DSEED=N] [-DWINDOW=NS]
#         -P run_chaos_determinism_check.cmake
# SEED and WINDOW default to 99 and 3000000 (3 ms simulated).
if(NOT DEFINED CHAOS)
  message(FATAL_ERROR "pass -DCHAOS=<path to fsio_chaos>")
endif()
if(NOT DEFINED SEED)
  set(SEED 99)
endif()
if(NOT DEFINED WINDOW)
  set(WINDOW 3000000)
endif()

set(args --seed ${SEED} --window ${WINDOW})

execute_process(COMMAND ${CHAOS} ${args} --jobs 1 OUTPUT_VARIABLE out_serial
                RESULT_VARIABLE rc_serial)
if(NOT rc_serial EQUAL 0)
  message(FATAL_ERROR "serial run failed with exit code ${rc_serial}:\n${out_serial}")
endif()

execute_process(COMMAND ${CHAOS} ${args} --jobs 1 OUTPUT_VARIABLE out_again
                RESULT_VARIABLE rc_again)
if(NOT rc_again EQUAL 0)
  message(FATAL_ERROR "second serial run failed with exit code ${rc_again}:\n${out_again}")
endif()
if(NOT out_serial STREQUAL out_again)
  message(FATAL_ERROR "same-seed chaos runs produced different output")
endif()

execute_process(COMMAND ${CHAOS} ${args} --jobs 4 OUTPUT_VARIABLE out_parallel
                RESULT_VARIABLE rc_parallel)
if(NOT rc_parallel EQUAL 0)
  message(FATAL_ERROR "parallel run failed with exit code ${rc_parallel}:\n${out_parallel}")
endif()
if(NOT out_serial STREQUAL out_parallel)
  message(FATAL_ERROR "--jobs=1 and --jobs=4 chaos matrices diverged")
endif()

message(STATUS "chaos determinism OK (${CHAOS} ${args})")
