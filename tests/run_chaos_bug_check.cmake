# Oracle power, cluster scale: a recovery path that skips the global IOTLB
# invalidation must be caught by the cross-host safety oracle, shrink to a
# fault-event list shorter than the input, and the written repro (holding
# exactly those events) must replay the violation.
# A damaged repro must be refused (exit 2, "bad repro file") instead of
# replaying something else: a corrupted number (which would replay zeros), a
# repeated seed (the last value would win) and a repro cut off before its
# last event (which would replay as a shorter, different repro).
# Invoked by ctest as
#   cmake -DCHAOS=<fsio_chaos> -DWORKDIR=<build dir> -P run_chaos_bug_check.cmake
if(NOT DEFINED CHAOS OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DCHAOS=<path to fsio_chaos> -DWORKDIR=<dir>")
endif()

set(repro "${WORKDIR}/repro_chaos_skip_invalidation.txt")

execute_process(COMMAND ${CHAOS} --break-recovery --expect-violation
                        --repro-out ${repro}
                OUTPUT_VARIABLE out_break RESULT_VARIABLE rc_break)
if(NOT rc_break EQUAL 0)
  message(FATAL_ERROR "broken recovery was not caught (exit ${rc_break}):\n${out_break}")
endif()
if(NOT EXISTS ${repro})
  message(FATAL_ERROR "shrunken repro was not written to ${repro}")
endif()

if(NOT out_break MATCHES "minimal repro \\(([0-9]+) of ([0-9]+) events")
  message(FATAL_ERROR "no minimal-repro summary in the output:\n${out_break}")
endif()
set(kept ${CMAKE_MATCH_1})
set(input ${CMAKE_MATCH_2})
if(NOT kept LESS input)
  message(FATAL_ERROR "shrinking removed nothing (${kept} of ${input} events):\n${out_break}")
endif()
file(STRINGS ${repro} repro_events REGEX "^event ")
list(LENGTH repro_events repro_count)
if(NOT repro_count EQUAL kept)
  message(FATAL_ERROR "repro holds ${repro_count} events, the shrinker kept ${kept}")
endif()

execute_process(COMMAND ${CHAOS} --replay ${repro}
                OUTPUT_VARIABLE out_replay RESULT_VARIABLE rc_replay)
if(NOT rc_replay EQUAL 0)
  message(FATAL_ERROR "repro replay did not reproduce (exit ${rc_replay}):\n${out_replay}")
endif()

file(READ ${repro} repro_text)
string(FIND "${repro_text}" "\nevent " last_event REVERSE)
string(SUBSTRING "${repro_text}" 0 ${last_event} truncated_text)
set(corrupt "${WORKDIR}/repro_chaos_corrupt.txt")
foreach(pattern "\nseed [0-9]+|\nseed abc" " p=[0-9.]+| p=x" "\nseed |\nseed 999\nseed "
                "TRUNCATE")
  if(pattern STREQUAL "TRUNCATE")
    set(to "a repro cut off before its last event")
    set(corrupt_text "${truncated_text}\n")
  else()
    string(REPLACE "|" ";" pair "${pattern}")
    list(GET pair 0 from)
    list(GET pair 1 to)
    string(REGEX REPLACE "${from}" "${to}" corrupt_text "${repro_text}")
  endif()
  if(corrupt_text STREQUAL repro_text)
    message(FATAL_ERROR "repro has no '${from}' to corrupt:\n${repro_text}")
  endif()
  file(WRITE ${corrupt} "${corrupt_text}")
  execute_process(COMMAND ${CHAOS} --replay ${corrupt}
                  OUTPUT_VARIABLE out_corrupt ERROR_VARIABLE err_corrupt
                  RESULT_VARIABLE rc_corrupt)
  string(FIND "${err_corrupt}" "fsio_chaos: bad repro file: " found)
  if(NOT rc_corrupt EQUAL 2 OR found EQUAL -1)
    message(FATAL_ERROR "repro with '${to}' was not refused (exit ${rc_corrupt}):\n"
                        "${out_corrupt}${err_corrupt}")
  endif()
endforeach()

message(STATUS "chaos oracle-power check OK (repro at ${repro})")
