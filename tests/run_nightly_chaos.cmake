# Nightly chaos sweep: longer windows and multiple seeds. PR runs must stay
# fast, so this test is a no-op unless FSIO_NIGHTLY is set (the scheduled CI
# job exports it).
if(NOT DEFINED ENV{FSIO_NIGHTLY})
  message(STATUS "FSIO_NIGHTLY not set; skipping long chaos sweep")
  return()
endif()

foreach(seed 1 7 23 99)
  execute_process(COMMAND ${CHAOS} --seed ${seed} --window 12000000 --jobs 4
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nightly chaos matrix failed (seed ${seed}, exit ${rc})")
  endif()
endforeach()

# Separate processes and --jobs 1 vs 4 on the long window.
execute_process(COMMAND ${CMAKE_COMMAND} -DCHAOS=${CHAOS} -DSEED=23 -DWINDOW=12000000
                        -P ${CMAKE_CURRENT_LIST_DIR}/run_chaos_determinism_check.cmake
                RESULT_VARIABLE rc_det)
if(NOT rc_det EQUAL 0)
  message(FATAL_ERROR "nightly chaos determinism check failed (exit ${rc_det})")
endif()
