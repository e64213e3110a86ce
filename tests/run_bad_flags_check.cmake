# fsio_sim must refuse a flag value it cannot run with exit code 2 and a
# message naming the flag, instead of crashing or running something else:
#  - an --iotlb-entries value that is not 4 x a power of two, on the cluster
#    path and on the --tenants path (a silently resized or partly
#    unreachable IOTLB);
#  - --cores=0 (a division by zero) and --ring=0 (every packet dropped).
# A valid value must still run.
# Invoked by ctest as
#   cmake -DSIM=<fsio_sim> -P run_bad_flags_check.cmake
if(NOT DEFINED SIM)
  message(FATAL_ERROR "pass -DSIM=<fsio_sim>")
endif()

# Each case: the arguments, "|", and the text the error message must contain.
set(cases "")
foreach(path_args "--flows=1" "--tenants=2")
  foreach(entries 24 0 2 6)
    list(APPEND cases
         "${path_args} --iotlb-entries=${entries}|--iotlb-entries must be 4 x a power of two")
  endforeach()
endforeach()
list(APPEND cases
     "--flows=1 --cores=0|--cores must be at least 1"
     "--flows=1 --ring=0|--ring must be at least 1")

foreach(case IN LISTS cases)
  string(FIND "${case}" "|" bar)
  string(SUBSTRING "${case}" 0 ${bar} args)
  math(EXPR message_at "${bar} + 1")
  string(SUBSTRING "${case}" ${message_at} -1 want)
  separate_arguments(arg_list UNIX_COMMAND "${args}")
  execute_process(COMMAND ${SIM} ${arg_list} --warmup-ms=1 --window-ms=1
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${args}: exit ${rc}, want 2\n${out}${err}")
  endif()
  string(FIND "${err}" "${want}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${args}: no message \"${want}\"\n${err}")
  endif()
endforeach()

execute_process(COMMAND ${SIM} --flows=1 --iotlb-entries=32 --warmup-ms=1 --window-ms=1
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--iotlb-entries=32 failed with exit ${rc}:\n${out}${err}")
endif()
