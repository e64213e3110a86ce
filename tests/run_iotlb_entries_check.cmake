# fsio_sim must refuse an --iotlb-entries value that is not 4 x a power of
# two — on the cluster path and on the --tenants path — with exit code 2
# and a message naming the flag, instead of running a silently resized or
# partly unreachable IOTLB. A valid value must still run.
# Invoked by ctest as
#   cmake -DSIM=<fsio_sim> -P run_iotlb_entries_check.cmake
if(NOT DEFINED SIM)
  message(FATAL_ERROR "pass -DSIM=<fsio_sim>")
endif()

foreach(path_args "--flows=1" "--tenants=2")
  foreach(entries 24 0 2 6)
    execute_process(COMMAND ${SIM} ${path_args} --iotlb-entries=${entries}
                    --warmup-ms=1 --window-ms=1
                    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR
              "${path_args} --iotlb-entries=${entries}: exit ${rc}, want 2\n${out}${err}")
    endif()
    string(FIND "${err}" "--iotlb-entries must be 4 x a power of two" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "${path_args} --iotlb-entries=${entries}: no message\n${err}")
    endif()
  endforeach()
endforeach()

execute_process(COMMAND ${SIM} --flows=1 --iotlb-entries=32 --warmup-ms=1 --window-ms=1
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--iotlb-entries=32 failed with exit ${rc}:\n${out}${err}")
endif()
