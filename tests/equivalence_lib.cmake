# Helpers shared by the equivalence drivers (golden_edge.cmake,
# reduce_equivalence.cmake, cache_equivalence.cmake), each of which
# include()s this file.
#
#   RUN_TIMEOUT  seconds one command may take before run_ok fails it
#                (default 120).

if(NOT DEFINED RUN_TIMEOUT)
  set(RUN_TIMEOUT 120)
endif()

# Runs the command in ARGN, fails unless it exits 0, and stores its stdout
# in `out_var` and its stderr in `last_stderr`.
function(run_ok out_var)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT ${RUN_TIMEOUT})
  if(NOT status STREQUAL "0")
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "${command}: exit status '${status}'\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(last_stderr "${err}" PARENT_SCOPE)
endfunction()

# Fails unless the JSON file `path` holds `key` equal to `want`.
function(expect_json path key want)
  file(READ "${path}" json)
  string(JSON got GET "${json}" "${key}")
  if(NOT got EQUAL want)
    message(FATAL_ERROR "${path}: ${key} = ${got}, expected ${want}")
  endif()
endfunction()

# Stores in `out_var` every member of the JSON file `path` outside the
# runtime_* keys (walls, counters, cache and worker tallies), one per line.
function(json_without_runtime out_var path)
  file(READ "${path}" json)
  string(JSON count LENGTH "${json}")
  math(EXPR last "${count} - 1")
  set(kept "")
  foreach(i RANGE ${last})
    string(JSON key MEMBER "${json}" ${i})
    if(NOT key MATCHES "^runtime_")
      string(JSON value GET "${json}" "${key}")
      string(APPEND kept "${key}=${value}\n")
    endif()
  endforeach()
  set(${out_var} "${kept}" PARENT_SCOPE)
endfunction()
