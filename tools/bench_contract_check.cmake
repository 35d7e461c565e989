# The benchmark's output contract, checked against BENCHMARK.json: for
# every workload it names, `sciera_perf --workload W --seed 1 --seconds 1
# --trace T` at T = 0 and 1 must exit 0, and its last stdout line must be
# JSON with "correct": true and a numeric value in "metrics" for every
# end_to_end metric (T = 0) or every per_layer metric (T = 1).
#
#   cmake -DBIN=<sciera_perf> -DSPEC=BENCHMARK.json \
#         -P tools/bench_contract_check.cmake
if(NOT DEFINED BIN OR NOT DEFINED SPEC)
  message(FATAL_ERROR "BIN and SPEC must be defined")
endif()

file(READ "${SPEC}" spec)

# The `name` of every entry of the spec's array `key`, as a list in `out`.
function(spec_names key out)
  string(JSON count LENGTH "${spec}" ${key})
  math(EXPR last "${count} - 1")
  set(names "")
  foreach(i RANGE ${last})
    string(JSON name GET "${spec}" ${key} ${i} name)
    list(APPEND names "${name}")
  endforeach()
  set(${out} "${names}" PARENT_SCOPE)
endfunction()

spec_names(workloads workloads)
spec_names(end_to_end metrics_trace_0)
spec_names(per_layer metrics_trace_1)

foreach(workload IN LISTS workloads)
  foreach(trace 0 1)
    set(run "${workload} --trace ${trace}")
    execute_process(
      COMMAND "${BIN}" --workload "${workload}" --seed 1 --seconds 1
              --trace ${trace}
      OUTPUT_VARIABLE output
      ERROR_VARIABLE errors
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "${run}: exit ${status}\n${errors}")
    endif()
    string(STRIP "${output}" output)
    string(FIND "${output}" "\n" newline REVERSE)
    math(EXPR start "${newline} + 1")
    string(SUBSTRING "${output}" ${start} -1 line)

    string(JSON correct ERROR_VARIABLE error GET "${line}" correct)
    if(error OR NOT correct STREQUAL "ON")
      message(FATAL_ERROR "${run}: last stdout line is not correct result "
                          "JSON:\n${line}")
    endif()
    foreach(metric IN LISTS metrics_trace_${trace})
      string(JSON type ERROR_VARIABLE error
             TYPE "${line}" metrics "${metric}" value)
      if(error OR NOT type STREQUAL "NUMBER")
        message(FATAL_ERROR "${run}: no value for ${metric}")
      endif()
    endforeach()
    list(LENGTH metrics_trace_${trace} count)
    message(STATUS "${run}: correct, ${count} metrics")
  endforeach()
endforeach()
