# Every tool must refuse a flag value it cannot run with exit code 2 and a
# message naming the flag, instead of crashing, running something else or
# passing vacuously:
#  - fsio_sim: an --iotlb-entries value that is not 4 x a power of two, on the
#    cluster path and on the --tenants path (a silently resized or partly
#    unreachable IOTLB); --cores=0 (a division by zero), --ring=0 (every
#    packet dropped), --flows=abc (0 flows), --window-ms=-1, --mtu=10 (the
#    MSS underflows), an unknown --mode; --trace, --metrics and --hugepages
#    on the --tenants path (which has no tracer, time series or hugepage
#    rings, so they were ignored: no file written);
#  - fsio_diff --seeds abc ("0 runs"), an unknown fsio_diff --fault-plan,
#    fsio_model --depth x (depth 0), fsio_sidechan --trials -1 (a huge
#    allocation), fsio_chaos --window abc (a 0 window), the removed
#    fsio_chaos --selftest-determinism, and the shared parser's generic
#    cases on fsio_trace and fsio_lint;
#  - fsio_bench with a figure name it does not have.
# Valid runs in both flag syntaxes (--name=value and --name value) must still
# exit 0, and so must the topology, multi-tenant and capability paths of
# fsio_sim end to end (the --jobs=4 sweep is why this test is also labelled
# threaded). The capability run must do its checks on the NIC and leave the
# IOMMU idle: nonzero capability.checks, no iommu.* counter at all. So must
# off and capability tenants on a shared IOMMU: no tenant.<id>.translations.
# Invoked by ctest as
#   cmake -DSIM=<fsio_sim> -DDIFF=<fsio_diff> -DMODEL=<fsio_model>
#         -DSIDECHAN=<fsio_sidechan> -DCHAOS=<fsio_chaos>
#         -DTRACE_TOOL=<fsio_trace> -DLINT=<fsio_lint> -DBENCH=<fsio_bench>
#         -P run_bad_flags_check.cmake
foreach(tool SIM DIFF MODEL SIDECHAN CHAOS TRACE_TOOL LINT BENCH)
  if(NOT DEFINED ${tool})
    message(FATAL_ERROR "pass -D${tool}=<path to the tool>")
  endif()
endforeach()

# Each case: the tool variable, "|", the arguments, "|", and the text the
# error message must contain. fsio_sim cases also get a 1 ms warmup and
# window so a wrongly accepted value cannot run long.
set(cases "")
foreach(path_args "--flows=1" "--tenants=2")
  foreach(entries 24 0 2 6)
    list(APPEND cases
         "SIM|${path_args} --iotlb-entries=${entries}|--iotlb-entries must be 4 x a power of two")
  endforeach()
endforeach()
list(APPEND cases
     "SIM|--flows=1 --cores=0|--cores must be at least 1"
     "SIM|--flows=1 --ring=0|--ring must be at least 1"
     "SIM|--flows=abc|--flows"
     "SIM|--flows=5x|--flows"
     "SIM|--flows=1 --window-ms=-1|--window-ms"
     "SIM|--flows=1 --mtu=10|--mtu must be at least"
     "SIM|--mode=bogus|--mode"
     "SIM|--flows 4294967296|--flows must be at most"
     "SIM|--flows=|--flows: empty value"
     "SIM|--flows|--flows: missing value"
     "SIM|--csv=1|--csv: takes no value"
     "SIM|--sweep-flows=1,,3|--sweep-flows"
     "SIM|--tenant-modes=strict,|--tenant-modes"
     "SIM|--tenants=2 --trace=tenants_trace.json|--trace is not supported with --tenants"
     "SIM|--tenants=2 --metrics=tenants_metrics.csv|--metrics is not supported with --tenants"
     "SIM|--tenants=2 --hugepages|--hugepages is not supported with --tenants"
     "SIM|--no-such-flag|--no-such-flag"
     "DIFF|--seeds abc|--seeds"
     "DIFF|--mode fastsafe --bug nope|--bug"
     "DIFF|--rcache maybe|--rcache"
     "DIFF|--fault-plan bogus|--fault-plan"
     "DIFF|--seed-base|--seed-base: missing value"
     "MODEL|--depth x|--depth"
     "MODEL|--domains 4|--domains must be at most"
     "SIDECHAN|--trials -1|--trials"
     "SIDECHAN|--partition bogus|--partition"
     "CHAOS|--window abc|--window"
     "CHAOS|--jobs=+2|--jobs"
     "CHAOS|--selftest-determinism|--selftest-determinism"
     "TRACE_TOOL|top trace.json --n=0|--n must be at least 1"
     "LINT|--rules=bogus src|--rules"
     "BENCH|no_such_bench|unknown bench 'no_such_bench'")

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 tool)
  list(GET fields 1 args)
  list(GET fields 2 want)
  separate_arguments(arg_list UNIX_COMMAND "${args}")
  if(tool STREQUAL "SIM")
    list(APPEND arg_list --warmup-ms=1 --window-ms=1)
  endif()
  execute_process(COMMAND ${${tool}} ${arg_list}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${tool} ${args}: exit ${rc}, want 2\n${out}${err}")
  endif()
  string(FIND "${err}" "${want}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${tool} ${args}: no message \"${want}\"\n${err}")
  endif()
endforeach()

# Valid runs, in both syntaxes and through mode aliases. Optional third and
# fourth fields: a regex stdout must match, and one it must not match.
set(valid
    "SIM|--flows=1 --iotlb-entries=32 --warmup-ms=1 --window-ms=1"
    "SIM|--flows 1 --mode strict --warmup-ms 1 --window-ms 1"
    "SIM|--tenants 2 --tenant-modes=strict,fastsafe --tenant-rounds 50"
    "SIM|--mode=strict --hosts=9 --incast --per-host --warmup-ms=2 --window-ms=3"
    "SIM|--mode=fastsafe --hosts=4 --switches=2 --sweep-flows=1,5,10 --jobs=4 --warmup-ms=2 --window-ms=3"
    "SIM|--tenants=3 --tenant-modes=strict,fastsafe --iotlb-partition=per_domain --tenant-rounds=500"
    "SIM|--mode=capability --flows=5 --warmup-ms=2 --window-ms=3 --counters|capability\\.checks +[1-9]|iommu\\."
    "SIM|--tenants=2 --tenant-modes=off,capability --tenant-rounds=50 --counters|tenant\\.2\\.translations +0|tenant\\.[12]\\.translations +[1-9]"
    "DIFF|--seeds 1 --ops 100 --mode fastsafe --quiet"
    "DIFF|--seeds=1 --ops=100 --mode=strict-contig --rcache=on"
    "DIFF|--seeds 1 --ops 100 --mode strict --fault-plan inv-stall-drop --quiet"
    "DIFF|--seeds=1 --ops=100 --mode=deferred --fault-plan=all"
    "MODEL|--mode strict --depth 4"
    "MODEL|--mode=linux+a --depth=4 --quiet"
    "SIDECHAN|--trials 32 --partition=none"
    "CHAOS|--help"
    "TRACE_TOOL|--help"
    "LINT|--list-rules"
    "BENCH|--help")
foreach(case IN LISTS valid)
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 tool)
  list(GET fields 1 args)
  separate_arguments(arg_list UNIX_COMMAND "${args}")
  execute_process(COMMAND ${${tool}} ${arg_list}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${tool} ${args} failed with exit ${rc}:\n${out}${err}")
  endif()
  list(LENGTH fields nfields)
  if(nfields GREATER 2)
    list(GET fields 2 want)
    list(GET fields 3 unwanted)
    if(NOT out MATCHES "${want}" OR out MATCHES "${unwanted}")
      message(FATAL_ERROR "${tool} ${args}: want /${want}/ and no /${unwanted}/ in:\n${out}")
    endif()
  endif()
endforeach()
