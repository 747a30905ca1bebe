# Run one harness or CLI and compare its stdout with a golden file,
# byte for byte. On a mismatch the output is left in ACTUAL and the
# difference is printed.
#
#   cmake -DHARNESS=<binary> -DGOLDEN=<file> -DACTUAL=<file> \
#         [-DARGS=<arguments>] [-DARTIFACTS=<files>] \
#         -P tests/golden/bench/compare.cmake
#
# ARGS is split like a shell command line and passed to HARNESS.
# ARTIFACTS names files (space-separated, relative to the working
# directory) that the run writes: each is deleted before the run and
# its SHA-256 appended to the output afterwards, one
# "sha256 <file> <digest>" line per file in the order given, so the
# golden pins large artifacts without holding their text.

separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(artifacts UNIX_COMMAND "${ARTIFACTS}")
if(artifacts)
    file(REMOVE ${artifacts})
endif()

execute_process(COMMAND ${HARNESS} ${args}
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${HARNESS} exited with ${status}")
endif()

foreach(artifact ${artifacts})
    if(NOT EXISTS ${artifact})
        message(FATAL_ERROR "${HARNESS} did not write ${artifact}")
    endif()
    file(SHA256 ${artifact} digest)
    string(APPEND actual "sha256 ${artifact} ${digest}\n")
endforeach()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${ACTUAL} "${actual}")
    execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
    message(FATAL_ERROR "${HARNESS} output differs from ${GOLDEN}")
endif()
