# Every user of the local ingest cache follows one rule: a warm run prints
# the cold run's output, served whole from the artifact with each blob read
# once, and an artifact with one bad blob is not served at all — the run
# gives the cold output, rewrites the artifact, and the next run is warm.
# Registered as the cache_equivalence ctest in tests/CMakeLists.txt (label
# equivalence); CI runs it at 10 groups per continent.
#
#   FIG9       the built fig9_opportunity, run at GROUPS groups per
#              continent (10 days).
#   WHATIF     the built fbedge_whatif, run as `GROUPS --days 1 --sweep
#              SCENARIOS`: the sweep's baseline follows the same rule.
#   ANALYZE    the built fbedge_analyze, over the output of
#   GEN        the built fbedge_gen at --groups 1 --days 1 (any GROUPS).
#   SCENARIOS  tests/data/scenarios.
#   GROUPS     groups per continent for FIG9 and WHATIF (default 1).
#   WORK       a directory this script may empty and fill.
#
# FIG9 first runs uncached at --threads 1 and 4: both print the same
# stdout. Then each tool runs at --threads 1 and 4, four times on one cache
# dir: cold, warm, with the byte in the middle of the artifact flipped
# (inside a blob: the index and footer at its end take 16 bytes per blob
# plus 8), and warm again. After every run the cache dir holds exactly one
# file, the artifact, so a leaked spill or temp file fails; and each tool's
# cold artifact has the same SHA-256 at --threads 1 and 4. The checks:
#
#   cold    FIG9: the uncached stdout; misses = every group, no hit, no
#           write failure.
#   warm    the cold stdout, and the cold --json outside runtime_* keys;
#           hits = every group, no miss; read_bytes = the artifact's blob
#           bytes, its size - 28 - 16 x blobs - 8.
#   flip    the cold stdout; no hit, misses = every group, no write
#           failure; the rewritten artifact is the cold one, byte for byte.
#   rewarm  the cold stdout; hits = every group, no miss.
#
# FIG9 and WHATIF report their counters as the runtime_cache_* keys of
# --json; ANALYZE, which has no --json, on its stderr `[runtime]   cache:`
# line.

if(NOT DEFINED GROUPS)
  set(GROUPS 1)
endif()

set(RUN_TIMEOUT 600)
include(${CMAKE_CURRENT_LIST_DIR}/equivalence_lib.cmake)

# Sets <pass>_hits, _misses, _read_bytes and _write_failures in the
# caller's scope: from the runtime_cache_* keys of the JSON file `json`, or
# when `json` is empty from the stderr `err`.
function(cache_counts pass json err)
  if(json)
    file(READ "${json}" text)
    foreach(counter hits misses read_bytes write_failures)
      string(JSON value GET "${text}" "runtime_cache_${counter}")
      set(${pass}_${counter} ${value} PARENT_SCOPE)
    endforeach()
  elseif(err MATCHES "cache: hits=([0-9]+) misses=([0-9]+) read_bytes=([0-9]+) [^\n]* write_failures=([0-9]+)")
    set(${pass}_hits ${CMAKE_MATCH_1} PARENT_SCOPE)
    set(${pass}_misses ${CMAKE_MATCH_2} PARENT_SCOPE)
    set(${pass}_read_bytes ${CMAKE_MATCH_3} PARENT_SCOPE)
    set(${pass}_write_failures ${CMAKE_MATCH_4} PARENT_SCOPE)
  else()
    message(FATAL_ERROR "${pass}: no [runtime] cache: line on stderr:\n${err}")
  endif()
endfunction()

# Fails unless `got` equals `want`.
function(expect_eq what got want)
  if(NOT got EQUAL want)
    message(FATAL_ERROR "${what} = ${got}, expected ${want}")
  endif()
endfunction()

# XORs the byte in the middle of the file `path` with 0x40, in place:
# printf writes the byte from its octal escape and dd puts it at its offset.
function(flip_middle_byte path)
  file(SIZE "${path}" size)
  math(EXPR middle "${size} / 2")
  file(READ "${path}" byte OFFSET ${middle} LIMIT 1 HEX)
  math(EXPR flipped "0x${byte} ^ 0x40")
  math(EXPR high "${flipped} / 64")
  math(EXPR mid "${flipped} / 8 % 8")
  math(EXPR low "${flipped} % 8")
  execute_process(COMMAND printf "\\${high}${mid}${low}"
                  COMMAND dd "of=${path}" bs=1 "seek=${middle}" conv=notrunc status=none
                  RESULTS_VARIABLE statuses)
  if(NOT statuses STREQUAL "0;0")
    message(FATAL_ERROR "could not flip byte ${middle} of ${path}: ${statuses}")
  endif()
endfunction()

# Fails unless the cache dir `cache` holds exactly one file, an artifact —
# so a leaked spill or temp file fails too — and stores its path in
# `out_var`.
function(the_artifact out_var what cache)
  file(GLOB entries LIST_DIRECTORIES true "${cache}/*")
  list(LENGTH entries count)
  expect_eq("${what}: files in the cache dir" ${count} 1)
  if(NOT entries MATCHES "\\.fbecache$")
    message(FATAL_ERROR "${what}: the cache dir holds ${entries}, not an artifact")
  endif()
  set(${out_var} "${entries}" PARENT_SCOPE)
endfunction()

# The four runs and their checks for one tool: `name` labels it, `groups`
# is its group count and `blobs` its artifact's blob count; `reference` is
# the stdout its cold run must print (empty: any); ARGN is its command line
# up to --cache-dir. With `json` ON each run also writes --json, which
# holds its counters.
function(check_cache_rule name groups blobs json reference)
  set(cache "${WORK}/${name}")
  foreach(pass cold warm flip rewarm)
    set(command ${ARGN} --cache-dir ${cache})
    set(json_path "")
    if(json)
      set(json_path "${WORK}/${name}.${pass}.json")
      list(APPEND command --json ${json_path})
    endif()
    if(pass STREQUAL "flip")
      flip_middle_byte("${artifact}")
    endif()
    run_ok(stdout ${command})
    cache_counts(${pass} "${json_path}" "${last_stderr}")
    the_artifact(artifact "${name} ${pass}" "${cache}")
    if(pass STREQUAL "cold")
      if(NOT reference STREQUAL "" AND NOT stdout STREQUAL reference)
        message(FATAL_ERROR "${name} cold: stdout differs from the uncached run's")
      endif()
      set(cold_stdout "${stdout}")
      if(json)
        json_without_runtime(cold_json ${json_path})
      endif()
      file(SHA256 "${artifact}" cold_sha)
      set(cold_sha_${name} ${cold_sha} PARENT_SCOPE)
      file(SIZE "${artifact}" cold_size)
    elseif(NOT stdout STREQUAL cold_stdout)
      message(FATAL_ERROR "${name} ${pass}: stdout differs from the cold run's")
    endif()
  endforeach()

  expect_eq("${name} cold: hits" ${cold_hits} 0)
  expect_eq("${name} cold: misses" ${cold_misses} ${groups})
  expect_eq("${name} cold: write failures" ${cold_write_failures} 0)

  if(json)
    json_without_runtime(warm_json "${WORK}/${name}.warm.json")
    if(NOT warm_json STREQUAL cold_json)
      message(FATAL_ERROR "${name} warm: --json differs from the cold run's "
                          "outside runtime_* keys:\n${cold_json}\n${warm_json}")
    endif()
  endif()
  expect_eq("${name} warm: hits" ${warm_hits} ${groups})
  expect_eq("${name} warm: misses" ${warm_misses} 0)
  math(EXPR blob_bytes "${cold_size} - 28 - 16 * ${blobs} - 8")
  expect_eq("${name} warm: read bytes" ${warm_read_bytes} ${blob_bytes})

  expect_eq("${name} flip: hits" ${flip_hits} 0)
  expect_eq("${name} flip: misses" ${flip_misses} ${groups})
  expect_eq("${name} flip: write failures" ${flip_write_failures} 0)
  file(SHA256 "${artifact}" rewritten_sha)
  if(NOT rewritten_sha STREQUAL cold_sha)
    message(FATAL_ERROR "${name} flip: the rewritten artifact differs from the cold one")
  endif()

  expect_eq("${name} rewarm: hits" ${rewarm_hits} ${groups})
  expect_eq("${name} rewarm: misses" ${rewarm_misses} 0)
  message("${name}: warm = cold, served whole and each blob read once; "
          "a flipped blob gives the cold output and a rewrite served whole next run")
endfunction()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

math(EXPR groups "6 * ${GROUPS}")
run_ok(fig9_uncached ${FIG9} ${GROUPS} --threads 1)
run_ok(fig9_uncached_t4 ${FIG9} ${GROUPS} --threads 4)
if(NOT fig9_uncached_t4 STREQUAL fig9_uncached)
  message(FATAL_ERROR "fig9 uncached: stdout differs between --threads 1 and 4")
endif()
run_ok(generated ${GEN} --groups 1 --days 1 --out ${WORK}/sessions.txt)
foreach(threads 1 4)
  check_cache_rule(fig9-t${threads} ${groups} ${groups} ON "${fig9_uncached}"
                   ${FIG9} ${GROUPS} --threads ${threads})
  check_cache_rule(whatif-sweep-t${threads} ${groups} ${groups} ON ""
                   ${WHATIF} ${GROUPS} --days 1 --threads ${threads} --sweep ${SCENARIOS})
  # Blob 0 of an fbedge_analyze artifact holds the counters and summary
  # CDFs, then one blob per group.
  check_cache_rule(analyze-t${threads} 6 7 OFF ""
                   ${ANALYZE} --threads ${threads} ${WORK}/sessions.txt)
endforeach()
# The writer orders blobs by group id whatever order they were put in, so a
# cold artifact does not depend on the thread count.
foreach(tool fig9 whatif-sweep analyze)
  if(NOT cold_sha_${tool}-t1 STREQUAL cold_sha_${tool}-t4)
    message(FATAL_ERROR "${tool}: the cold artifact differs between --threads 1 and 4")
  endif()
endforeach()
message("cold artifacts: the same SHA-256 at --threads 1 and 4 for fig9, the sweep and fbedge_analyze")
