# Scalar/AVX2 byte identity end to end: FIG6 and MONITOR (the built
# fig6_global_perf and fbedge_monitor) must print the same stdout under
# FBEDGE_SIMD=off and FBEDGE_SIMD=avx2. Registered as the simd_identity
# ctest in tests/CMakeLists.txt; CI's simd-identity job runs the same
# comparison at full size. When the avx2 run fails fast because the build
# or CPU has no AVX2, the script prints "simd_identity: skipped", which the
# test's SKIP_REGULAR_EXPRESSION reports as skipped.
set(commands "${FIG6} 1 --threads 2" "${MONITOR} 2 --days 1 --threads 2")
foreach(command IN LISTS commands)
  separate_arguments(argv UNIX_COMMAND "${command}")
  foreach(mode off avx2)
    execute_process(COMMAND ${CMAKE_COMMAND} -E env FBEDGE_SIMD=${mode} ${argv}
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE out_${mode}
                    ERROR_VARIABLE err
                    TIMEOUT 120)
    if(NOT status STREQUAL "0")
      if(mode STREQUAL "avx2" AND err MATCHES "FBEDGE_SIMD=avx2 but")
        message("simd_identity: skipped, no AVX2 here: ${err}")
        return()
      endif()
      message(FATAL_ERROR "FBEDGE_SIMD=${mode} ${command}: exit status '${status}'\n${err}")
    endif()
  endforeach()
  if(NOT out_off STREQUAL out_avx2)
    message(FATAL_ERROR "${command}: stdout differs between FBEDGE_SIMD=off and avx2")
  endif()
  message("${command}: stdout identical under FBEDGE_SIMD=off and avx2")
endforeach()
