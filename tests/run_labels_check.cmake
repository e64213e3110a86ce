# Fails, naming the tests, if any registered test carries neither the tier1
# nor the slow label: the CMake test presets select tests by label, so an
# unlabelled test would silently drop out of every CI run.
# Invoked by ctest as
#   cmake -DCTEST=<ctest> -DBUILD_DIR=<build dir> -P run_labels_check.cmake
if(NOT DEFINED CTEST OR NOT DEFINED BUILD_DIR)
  message(FATAL_ERROR "pass -DCTEST=<path to ctest> -DBUILD_DIR=<build dir>")
endif()

execute_process(COMMAND ${CTEST} -N -LE "^(tier1|slow)$"
                WORKING_DIRECTORY ${BUILD_DIR}
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ctest -N failed with exit ${rc}:\n${out}")
endif()
string(REGEX MATCHALL "Test +#[0-9]+: [^\n]+" unlabelled "${out}")
if(unlabelled)
  string(REPLACE ";" "\n  " unlabelled "${unlabelled}")
  message(FATAL_ERROR "tests with neither a tier1 nor a slow label:\n  ${unlabelled}")
endif()
if(NOT out MATCHES "Total Tests: 0")
  message(FATAL_ERROR "could not read the test list:\n${out}")
endif()
