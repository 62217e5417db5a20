# Runs BIN with ARGS (one space-separated string) and fails unless the
# command is rejected as a usage error: exit status 2 and "usage:" on
# stderr. Registered per command line by fbedge_usage_test() in
# tests/CMakeLists.txt.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "${BIN} ${ARGS}: expected exit status 2, got '${status}'")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "${BIN} ${ARGS}: no usage line on stderr:\n${err}")
endif()
