# Runs one example binary: it must exit 0 and, when GOLDEN names a file,
# print exactly that file's text on stdout.
#   cmake -DEXAMPLE=<binary> [-DGOLDEN=<file>] -P run_example.cmake
execute_process(COMMAND ${EXAMPLE}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${exit_code}")
endif()
if(GOLDEN)
  file(READ ${GOLDEN} expected)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${EXAMPLE}: stdout differs from ${GOLDEN}:\n"
                        "${actual}")
  endif()
endif()
