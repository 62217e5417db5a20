# Every caller of the edge reduce prints the same stdout however the reduce
# is reached. Registered as the reduce_equivalence ctest in
# tests/CMakeLists.txt, mostly at reduced size; CI's full-size jobs run the
# same comparisons at default size.
#
#   FIG9      the built fig9_opportunity: no cache, a cold --cache-dir run
#             and the warm run after it, at --threads 1 and 4. Warm must be
#             served from the artifact (runtime_cache_hits = groups, no
#             misses).
#   SCALE     the built fbedge_scale: --workers 0 --threads 4 (in process)
#             against 1 and 3 worker subprocesses, each spawned once with
#             no failure; then, at full size (6 groups per continent, 2
#             days), against 1 and 4 worker subprocesses, with the --json
#             files equal outside the runtime_* keys and no failure, retry
#             or degraded shard.
#   WHATIF    the built fbedge_whatif: --sweep SCENARIOS against the same
#             files passed as --scenario, at --threads 1 and 4. The
#             verdict_hash lines must agree, and the sweep stdout must not
#             depend on the thread count. Then --sweep over 1 and 3 worker
#             subprocesses, cold and warm on one cache dir, must print the
#             in-process sweep's stdout, spawning each shard once.
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

# Full size (6 groups per continent, 2 days): stdout and the --json outside
# runtime_* keys equal the in-process run's, and a clean run spawns exactly
# one worker per shard with no failure, retry or degraded shard.
run_ok(scale_reference ${SCALE} 6 --days 2 --workers 0 --threads 4
       --json ${WORK}/scale-ref.json)
json_without_runtime(scale_reference_json ${WORK}/scale-ref.json)
foreach(workers 1 4)
  run_ok(scale ${SCALE} 6 --days 2 --workers ${workers}
         --cache-dir ${WORK}/scale6-w${workers} --json ${WORK}/scale.json)
  expect_same("fbedge_scale 6 --days 2 --workers ${workers}" "${scale_reference}" "${scale}")
  json_without_runtime(scale_json ${WORK}/scale.json)
  if(NOT scale_json STREQUAL scale_reference_json)
    message(FATAL_ERROR "fbedge_scale 6 --days 2 --workers ${workers}: --json differs "
                        "outside runtime_* keys:\n${scale_reference_json}\n${scale_json}")
  endif()
  expect_json(${WORK}/scale.json runtime_workers_spawned ${workers})
  foreach(key runtime_worker_failures runtime_worker_retries runtime_degraded_shards)
    expect_json(${WORK}/scale.json ${key} 0)
  endforeach()
endforeach()
message("fbedge_scale 6 --days 2: stdout and --json identical at --workers 0, 1 and 4; "
        "no failure, retry or degraded shard")

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

# ---- fbedge_whatif: the sweep over worker subprocesses ---------------------
# Two packs of SCENARIOS affect groups at this size, so each run spawns one
# fleet of `workers` shards per pack; the warm run respawns every shard,
# and each worker finds its shard already published.
foreach(workers 1 3)
  set(cache "${WORK}/sweep-w${workers}")
  foreach(pass cold warm)
    run_ok(fleet ${WHATIF} 1 --days 1 --threads 2 --sweep ${SCENARIOS}
           --workers ${workers} --cache-dir ${cache} --json ${WORK}/sweep.json)
    expect_same("fbedge_whatif --sweep --workers ${workers}, ${pass}"
                "${sweep_reference}" "${fleet}")
    math(EXPR spawned "2 * ${workers}")
    expect_json(${WORK}/sweep.json runtime_workers_spawned ${spawned})
    expect_json(${WORK}/sweep.json runtime_worker_failures 0)
  endforeach()
endforeach()
message("fbedge_whatif 1 --days 1 --sweep: stdout identical in process and over 1 and 3 "
        "workers, cold and warm")
