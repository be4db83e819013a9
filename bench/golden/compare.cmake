# Runs one bench in a fresh scratch directory and compares its stdout
# byte for byte with a committed golden file. The simulator is
# deterministic, so any difference is a real change to a printed figure.
#
#   cmake -DBENCH=<executable> [-DARGS="<arg> <arg> ..."]
#         -DGOLDEN=<golden .txt> -DWORKDIR=<dir> -P compare.cmake
#
# ARGS is optional: the bench's command-line arguments, space-separated.
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_FILE "${WORKDIR}/stdout.txt"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORKDIR}/stdout.txt" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR
          "stdout of ${BENCH} differs from ${GOLDEN}: "
          "diff ${WORKDIR}/stdout.txt against it")
endif()
