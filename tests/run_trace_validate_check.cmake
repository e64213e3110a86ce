# Generates a trace with fsio_sim and validates it with fsio_trace: the file
# must parse as Chrome trace-event format (fsio_trace validate exits 0) and
# must contain events from every major category — iommu, pcie, nic, driver —
# proving the instrumentation covers the full datapath; fsio_trace summary
# must count its iommu spans. Also checks that --trace-filter restricts the
# output to the requested category.
# Invoked by ctest as
#   cmake -DSIM=<fsio_sim> -DTRACE_TOOL=<fsio_trace> [-DWORKDIR=<dir>]
#         -P run_trace_validate_check.cmake
if(NOT DEFINED SIM OR NOT DEFINED TRACE_TOOL)
  message(FATAL_ERROR "pass -DSIM=<fsio_sim> and -DTRACE_TOOL=<fsio_trace>")
endif()
if(NOT DEFINED WORKDIR)
  set(WORKDIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(trace_file ${WORKDIR}/trace_validate.trace.json)
execute_process(COMMAND ${SIM} --mode=strict --flows=3 --warmup-ms=2 --window-ms=3
                        --trace=${trace_file}
                OUTPUT_VARIABLE sim_out RESULT_VARIABLE rc_sim)
if(NOT rc_sim EQUAL 0)
  message(FATAL_ERROR "fsio_sim --trace failed with exit code ${rc_sim}:\n${sim_out}")
endif()

execute_process(COMMAND ${TRACE_TOOL} validate ${trace_file}
                OUTPUT_VARIABLE validate_out ERROR_VARIABLE validate_err
                RESULT_VARIABLE rc_validate)
if(NOT rc_validate EQUAL 0)
  message(FATAL_ERROR "fsio_trace validate failed:\n${validate_out}${validate_err}")
endif()

foreach(cat iommu pcie nic driver)
  string(FIND "${validate_out}" "${cat}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "trace is missing '${cat}' events:\n${validate_out}")
  endif()
endforeach()

execute_process(COMMAND ${TRACE_TOOL} summary ${trace_file}
                OUTPUT_VARIABLE summary_out RESULT_VARIABLE rc_summary)
if(NOT rc_summary EQUAL 0 OR NOT summary_out MATCHES "iommu +[1-9]")
  message(FATAL_ERROR "fsio_trace summary failed (exit ${rc_summary}):\n${summary_out}")
endif()

# Category filtering: a filtered run must keep iommu and drop pcie/nic.
set(filtered_file ${WORKDIR}/trace_validate.filtered.json)
execute_process(COMMAND ${SIM} --mode=strict --flows=3 --warmup-ms=2 --window-ms=3
                        --trace=${filtered_file} --trace-filter=iommu
                OUTPUT_VARIABLE sim_out RESULT_VARIABLE rc_sim)
if(NOT rc_sim EQUAL 0)
  message(FATAL_ERROR "fsio_sim --trace-filter failed with exit code ${rc_sim}")
endif()
execute_process(COMMAND ${TRACE_TOOL} validate ${filtered_file}
                OUTPUT_VARIABLE filtered_out RESULT_VARIABLE rc_validate)
if(NOT rc_validate EQUAL 0)
  message(FATAL_ERROR "fsio_trace validate failed on filtered trace:\n${filtered_out}")
endif()
string(FIND "${filtered_out}" "iommu" found_iommu)
string(FIND "${filtered_out}" "pcie" found_pcie)
if(found_iommu EQUAL -1 OR NOT found_pcie EQUAL -1)
  message(FATAL_ERROR "--trace-filter=iommu not honored:\n${filtered_out}")
endif()

message(STATUS "trace validate OK:\n${validate_out}")
