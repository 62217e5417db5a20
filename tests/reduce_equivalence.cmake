# Every caller of the edge reduce prints the same stdout however the reduce
# is reached. Registered as the reduce_equivalence ctest in
# tests/CMakeLists.txt, at reduced size; CI's full-size jobs run the same
# comparisons at default size.
#
#   FIG9      the built fig9_opportunity: no cache, a cold --cache-dir run
#             and the warm run after it, at --threads 1 and 4. Warm must be
#             served from the artifact (runtime_cache_hits = groups, no
#             misses).
#   SCALE     the built fbedge_scale: --workers 0 --threads 4 (in process)
#             against 1 and 3 worker subprocesses, each spawned once with
#             no failure.
#   WHATIF    the built fbedge_whatif: --sweep SCENARIOS against the same
#             files passed as --scenario, at --threads 1 and 4. The
#             verdict_hash lines must agree, and the sweep stdout must not
#             depend on the thread count.
#   WORK      a directory this script may empty and fill.

# Runs the command in ARGN, fails unless it exits 0, and stores its stdout
# in `out_var`.
function(run_ok out_var)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 120)
  if(NOT status STREQUAL "0")
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "${command}: exit status '${status}'\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Fails unless the JSON file `path` holds `key` equal to `want`.
function(expect_json path key want)
  file(READ "${path}" json)
  string(JSON got GET "${json}" "${key}")
  if(NOT got EQUAL want)
    message(FATAL_ERROR "${path}: ${key} = ${got}, expected ${want}")
  endif()
endfunction()

# Fails unless `got` equals `want`, naming what differs.
function(expect_same what want got)
  if(NOT want STREQUAL got)
    message(FATAL_ERROR "${what}: stdout differs")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# ---- fig9_opportunity: no cache, cold, warm ---------------------------------
set(groups 6)  # 1 group per continent
foreach(threads 1 4)
  set(cache "${WORK}/fig9-t${threads}")
  run_ok(plain ${FIG9} 1 --threads ${threads})
  if(NOT DEFINED fig9_reference)
    set(fig9_reference "${plain}")
  endif()
  expect_same("fig9 --threads ${threads}, no cache" "${fig9_reference}" "${plain}")
  run_ok(cold ${FIG9} 1 --threads ${threads} --cache-dir ${cache})
  expect_same("fig9 --threads ${threads}, cold" "${fig9_reference}" "${cold}")
  run_ok(warm ${FIG9} 1 --threads ${threads} --cache-dir ${cache}
         --json ${WORK}/fig9-warm.json)
  expect_same("fig9 --threads ${threads}, warm" "${fig9_reference}" "${warm}")
  expect_json(${WORK}/fig9-warm.json runtime_cache_hits ${groups})
  expect_json(${WORK}/fig9-warm.json runtime_cache_misses 0)
endforeach()
message("fig9_opportunity 1: stdout identical uncached, cold and warm at --threads 1 and 4")

# ---- fbedge_scale: in process against worker subprocesses ------------------
run_ok(scale_reference ${SCALE} 1 --days 1 --workers 0 --threads 4)
foreach(workers 1 3)
  run_ok(scale ${SCALE} 1 --days 1 --workers ${workers}
         --cache-dir ${WORK}/scale-w${workers} --json ${WORK}/scale.json)
  expect_same("fbedge_scale --workers ${workers}" "${scale_reference}" "${scale}")
  expect_json(${WORK}/scale.json runtime_workers_spawned ${workers})
  expect_json(${WORK}/scale.json runtime_worker_failures 0)
endforeach()
message("fbedge_scale 1 --days 1: stdout identical at --workers 0, 1 and 3")

# ---- fbedge_whatif: one sweep pass against one run per scenario ------------
file(GLOB packs "${SCENARIOS}/*.conf")
list(SORT packs)
set(scenario_args "")
foreach(pack IN LISTS packs)
  list(APPEND scenario_args --scenario ${pack})
endforeach()
foreach(threads 1 4)
  run_ok(sweep ${WHATIF} 1 --days 1 --threads ${threads} --sweep ${SCENARIOS})
  if(NOT DEFINED sweep_reference)
    set(sweep_reference "${sweep}")
  endif()
  expect_same("fbedge_whatif --sweep --threads ${threads}" "${sweep_reference}" "${sweep}")
  run_ok(single ${WHATIF} 1 --days 1 --threads ${threads} ${scenario_args})
  string(REGEX MATCHALL "verdict_hash = [0-9a-f]+" sweep_hashes "${sweep}")
  string(REGEX MATCHALL "verdict_hash = [0-9a-f]+" single_hashes "${single}")
  list(LENGTH packs count)
  list(LENGTH sweep_hashes hashes)
  math(EXPR want "${count} + 1")  # the baseline block, then one per pack
  if(NOT hashes EQUAL want OR NOT sweep_hashes STREQUAL single_hashes)
    message(FATAL_ERROR "fbedge_whatif --threads ${threads}: verdict hashes differ "
                        "between --sweep and --scenario:\n${sweep_hashes}\n${single_hashes}")
  endif()
endforeach()
message("fbedge_whatif 1 --days 1: --sweep and --scenario verdict hashes agree at --threads 1 and 4")
