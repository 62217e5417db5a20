# The five edge benches print their pinned stdout. Registered as the
# golden_edge ctest in tests/CMakeLists.txt (label equivalence).
#
#   BENCH_DIR the directory of the built benches. fig8_degradation,
#             fig9_opportunity, fig10_peer_transit, table1_classes and
#             table2_relationships each run at size 1 (one group per
#             continent, 10 days).
#   GOLDEN    tests/data/golden: <bench>.txt holds the stdout each bench
#             must print.
#   WORK      a directory this script may empty and fill.
#
# Each bench runs uncached at --threads 1 (about 3 s). Then one cold
# --cache-dir run of fig9_opportunity writes the artifact all five share
# (same world, config and goodput, so the same key), and each bench runs
# warm from it at --threads 4, served whole from the artifact.
#
# BUMP RULE: a change that is meant to move a printed number updates the
# golden file (the new stdout of `<bench> 1 --threads 1`) and
# EXPERIMENTS.md in the same change, and says why. A change that is not
# meant to move one must leave every golden file as it is.

include(${CMAKE_CURRENT_LIST_DIR}/equivalence_lib.cmake)

# Fails unless `got` is the golden stdout of `bench`, leaving `got` in WORK
# for a diff.
function(expect_golden bench mode got)
  file(READ "${GOLDEN}/${bench}.txt" want)
  if(NOT want STREQUAL got)
    file(WRITE "${WORK}/${bench}.${mode}.txt" "${got}")
    message(FATAL_ERROR "${bench} (${mode}): stdout differs from its golden file; "
                        "diff ${GOLDEN}/${bench}.txt ${WORK}/${bench}.${mode}.txt")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(benches fig8_degradation fig9_opportunity fig10_peer_transit table1_classes
            table2_relationships)

foreach(bench IN LISTS benches)
  run_ok(out ${BENCH_DIR}/${bench} 1 --threads 1)
  expect_golden(${bench} uncached "${out}")
endforeach()
message("golden_edge: uncached --threads 1 stdout matches at size 1")

set(groups 6)  # 1 group per continent
run_ok(out ${BENCH_DIR}/fig9_opportunity 1 --threads 4 --cache-dir ${WORK}/cache
       --json ${WORK}/cold.json)
expect_golden(fig9_opportunity cold "${out}")
expect_json(${WORK}/cold.json runtime_cache_misses ${groups})
foreach(bench IN LISTS benches)
  run_ok(out ${BENCH_DIR}/${bench} 1 --threads 4 --cache-dir ${WORK}/cache
         --json ${WORK}/${bench}.warm.json)
  expect_golden(${bench} warm "${out}")
  expect_json(${WORK}/${bench}.warm.json runtime_cache_hits ${groups})
  expect_json(${WORK}/${bench}.warm.json runtime_cache_misses 0)
endforeach()
message("golden_edge: one cold --cache-dir run, then warm --threads 4 stdout matches")
