# Run one figure/table harness and compare its stdout with a golden
# file, byte for byte. On a mismatch the output is left in ACTUAL
# and the difference is printed.
#
#   cmake -DHARNESS=<binary> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P tests/golden/bench/compare.cmake

execute_process(COMMAND ${HARNESS}
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${HARNESS} exited with ${status}")
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${ACTUAL} "${actual}")
    execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
    message(FATAL_ERROR "${HARNESS} output differs from ${GOLDEN}")
endif()
