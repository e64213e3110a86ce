# Suite identity check for the bench runner.
#
# Runs BENCH (fsio_bench) with no names, so every figure runs in one process
# and the figures that share sweep points take them from the memo, in
# deterministic smoke mode (FSIO_BENCH_SMOKE=1, FSIO_BENCH_CSV_ONLY=1), once
# serially and once on 4 sweep threads. Each stdout must equal the golden
# baselines of NAMES (comma-separated, in run order) concatenated, and stderr
# must report the memo's smoke-mode counts: a point missing from the memo
# key would either change a figure's rows or the simulated count.
#
#   cmake -DBENCH=<fsio_bench> -DNAMES=a,b,... -DGOLDEN_DIR=<tests/golden>
#         -DWORKDIR=<dir> -P run_bench_suite_check.cmake
foreach(var BENCH NAMES GOLDEN_DIR WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

set(expected "${WORKDIR}/bench_suite_expected.csv")
file(WRITE ${expected} "")
string(REPLACE "," ";" names "${NAMES}")
foreach(name IN LISTS names)
  file(READ ${GOLDEN_DIR}/${name}.csv golden)
  file(APPEND ${expected} "${golden}")
endforeach()

set(want_summary "fsio_bench: 38 sweep points, 24 simulated (iperf 28/14, apps 10/10)")
set(ENV{FSIO_BENCH_SMOKE} 1)
set(ENV{FSIO_BENCH_CSV_ONLY} 1)
foreach(threads 1 4)
  set(ENV{FSIO_SWEEP_THREADS} ${threads})
  set(actual "${WORKDIR}/bench_suite_actual_${threads}.csv")
  execute_process(COMMAND ${BENCH}
                  OUTPUT_FILE ${actual} ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fsio_bench (${threads} threads) exited with ${rc}:\n${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${expected} ${actual}
                  RESULT_VARIABLE differs)
  if(differs)
    find_program(DIFF_TOOL diff)
    if(DIFF_TOOL)
      execute_process(COMMAND ${DIFF_TOOL} -u ${expected} ${actual} OUTPUT_VARIABLE delta)
    endif()
    message(FATAL_ERROR "fsio_bench (${threads} threads): suite output differs from the "
                        "concatenated goldens\n${delta}")
  endif()
  string(FIND "${err}" "${want_summary}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "fsio_bench (${threads} threads): want \"${want_summary}\" on "
                        "stderr, got:\n${err}")
  endif()
endforeach()
