# Every caller of the edge reduce prints the same stdout however the reduce
# is reached. Registered as the reduce_equivalence ctest in
# tests/CMakeLists.txt, mostly at reduced size; CI's full-size jobs run the
# same comparisons at default size. fig9_opportunity's uncached, cold and
# warm runs are checked in cache_equivalence.cmake.
#
#   SCALE     the built fbedge_scale: --workers 0 --threads 4 (in process)
#             against 1 and 3 worker subprocesses, each spawned once with
#             no failure; then, at full size (6 groups per continent, 2
#             days), against 1 and 4 worker subprocesses, with the --json
#             files equal outside the runtime_* keys and no failure, retry
#             or degraded shard. Each fleet's cache dir holds only
#             artifacts and shard manifests after its run.
#   WHATIF    the built fbedge_whatif: --sweep SCENARIOS against the same
#             files passed as --scenario, at --threads 1 and 4. The
#             verdict_hash lines must agree, and the sweep stdout must not
#             depend on the thread count. Then --sweep over 1 and 3 worker
#             subprocesses, cold and warm on one cache dir, must print the
#             in-process sweep's stdout, spawning each shard once, and
#             leave only artifacts and shard manifests in the cache dir.
#   WORK      a directory this script may empty and fill.

include(${CMAKE_CURRENT_LIST_DIR}/equivalence_lib.cmake)

# Fails unless `got` equals `want`, naming what differs.
function(expect_same what want got)
  if(NOT want STREQUAL got)
    message(FATAL_ERROR "${what}: stdout differs")
  endif()
endfunction()

# Fails unless the fleet cache dir `cache` holds only artifacts and shard
# manifests, so a leaked spill or temp file fails.
function(expect_only_published what cache)
  file(GLOB entries LIST_DIRECTORIES true "${cache}/*")
  foreach(entry IN LISTS entries)
    if(NOT entry MATCHES "\\.(fbecache|fbeshard)$")
      message(FATAL_ERROR "${what}: ${entry} left in the cache dir")
    endif()
  endforeach()
endfunction()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# ---- fbedge_scale: in process against worker subprocesses ------------------
run_ok(scale_reference ${SCALE} 1 --days 1 --workers 0 --threads 4)
foreach(workers 1 3)
  run_ok(scale ${SCALE} 1 --days 1 --workers ${workers}
         --cache-dir ${WORK}/scale-w${workers} --json ${WORK}/scale.json)
  expect_same("fbedge_scale --workers ${workers}" "${scale_reference}" "${scale}")
  expect_only_published("fbedge_scale --workers ${workers}" ${WORK}/scale-w${workers})
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
  expect_only_published("fbedge_scale 6 --days 2 --workers ${workers}" ${WORK}/scale6-w${workers})
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
    expect_only_published("fbedge_whatif --sweep --workers ${workers}, ${pass}" ${cache})
    math(EXPR spawned "2 * ${workers}")
    expect_json(${WORK}/sweep.json runtime_workers_spawned ${spawned})
    expect_json(${WORK}/sweep.json runtime_worker_failures 0)
  endforeach()
endforeach()
message("fbedge_whatif 1 --days 1 --sweep: stdout identical in process and over 1 and 3 "
        "workers, cold and warm")
