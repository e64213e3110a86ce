# Golden-baseline comparator for one figure of the bench runner.
#
# Runs `BENCH <name>` (BENCH is fsio_bench; <name> is GOLDEN's file name) in
# deterministic smoke mode (FSIO_BENCH_SMOKE=1, FSIO_BENCH_CSV_ONLY=1) and
# byte-compares its stdout against GOLDEN (tests/golden/<name>.csv). On mismatch the full unified diff is
# printed and the test fails — a bench whose numbers move must either be
# fixed or have its baseline re-recorded.
#
# Re-record with either of:
#   FSIO_UPDATE_GOLDEN=1 ctest -R '^golden_'
#   cmake --build build --target update-golden
if(NOT DEFINED BENCH OR NOT DEFINED GOLDEN OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DBENCH=... -DGOLDEN=... -DWORKDIR=... -P run_golden_check.cmake")
endif()

get_filename_component(name "${GOLDEN}" NAME_WE)
set(actual "${WORKDIR}/golden_actual_${name}.csv")

set(ENV{FSIO_BENCH_SMOKE} 1)
set(ENV{FSIO_BENCH_CSV_ONLY} 1)
execute_process(COMMAND ${BENCH} ${name}
                OUTPUT_FILE ${actual}
                RESULT_VARIABLE bench_result)
if(NOT bench_result EQUAL 0)
  message(FATAL_ERROR "${name}: bench exited with ${bench_result}")
endif()

if(DEFINED ENV{FSIO_UPDATE_GOLDEN})
  configure_file(${actual} ${GOLDEN} COPYONLY)
  message(STATUS "${name}: golden baseline updated")
  return()
endif()

if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "${name}: no golden baseline at ${GOLDEN}; "
                      "record one with FSIO_UPDATE_GOLDEN=1 ctest -R golden_${name}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${actual}
                RESULT_VARIABLE same)
if(same EQUAL 0)
  return()
endif()

# Print a readable diff before failing. diff(1) is present on the CI
# runners; fall back to dumping both files when it is not.
find_program(DIFF_TOOL diff)
if(DIFF_TOOL)
  execute_process(COMMAND ${DIFF_TOOL} -u ${GOLDEN} ${actual} OUTPUT_VARIABLE delta)
else()
  file(READ ${GOLDEN} want)
  file(READ ${actual} got)
  set(delta "--- expected ---\n${want}\n--- actual ---\n${got}")
endif()
message(FATAL_ERROR "${name}: bench output drifted from the golden baseline.\n${delta}\n"
                    "If the change is intentional, re-record with "
                    "FSIO_UPDATE_GOLDEN=1 ctest -R golden_${name}")
