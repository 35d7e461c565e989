# Replay check shared by the CLI smoke ctests: runs `BIN ARGS` twice in
# separate processes and requires (1) exit status 0 from both, (2)
# byte-identical stdout — same arguments, same seed, same output — and
# (3) the fields named in REQUIRE and POSITIVE in that output. Separate
# processes matter: an in-process rerun would share the metrics
# registry's instance labels instead of proving replay from the seed.
#
# Expected variables:
#   BIN       binary to run
#   OUT_DIR   scratch dir; the outputs land in run1.out and run2.out
#   ARGS      space-separated arguments
#   REQUIRE   optional, space-separated: `key` requires "key" in the
#             output, `key=value` requires "key": value or "key": "value"
#   POSITIVE  optional, space-separated keys whose numeric value must be
#             greater than 0
#
# Scripts that gate more than replay include() this one and then read
# the first run's output from ${first} and its arguments from ${run_args}.
if(NOT DEFINED BIN OR NOT DEFINED OUT_DIR OR NOT DEFINED ARGS)
  message(FATAL_ERROR "BIN, OUT_DIR and ARGS must be defined")
endif()

separate_arguments(run_args UNIX_COMMAND "${ARGS}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(first "${OUT_DIR}/run1.out")
set(second "${OUT_DIR}/run2.out")

foreach(run IN ITEMS run1 run2)
  execute_process(
    COMMAND "${BIN}" ${run_args}
    OUTPUT_FILE "${OUT_DIR}/${run}.out"
    ERROR_VARIABLE errors
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} ${run_args} failed (${status}):\n${errors}")
  endif()
endforeach()

file(READ "${first}" output)
separate_arguments(required UNIX_COMMAND "${REQUIRE}")
foreach(field IN LISTS required)
  if(field MATCHES "^([^=]+)=(.*)$")
    string(FIND "${output}" "\"${CMAKE_MATCH_1}\": ${CMAKE_MATCH_2}" bare)
    string(FIND "${output}" "\"${CMAKE_MATCH_1}\": \"${CMAKE_MATCH_2}\"" quoted)
    if(bare EQUAL -1 AND quoted EQUAL -1)
      message(FATAL_ERROR "output of ${ARGS} lacks ${field}:\n${output}")
    endif()
  else()
    string(FIND "${output}" "\"${field}\"" found)
    if(found EQUAL -1)
      message(FATAL_ERROR "output of ${ARGS} lacks \"${field}\":\n${output}")
    endif()
  endif()
endforeach()

separate_arguments(positive UNIX_COMMAND "${POSITIVE}")
foreach(key IN LISTS positive)
  string(REGEX MATCH "\"${key}\": (-?[0-9.]+)" match "${output}")
  if("${match}" STREQUAL "" OR NOT CMAKE_MATCH_1 GREATER 0)
    message(FATAL_ERROR
            "expected \"${key}\" > 0, got '${CMAKE_MATCH_1}':\n${output}")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${first}" "${second}"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "two same-seed runs of ${BIN} ${ARGS} differ "
                      "(${first} vs ${second})")
endif()
