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
  # Show which figures moved, so a CI log names them: a unified diff of
  # the golden against this run's stdout, when `diff` is installed.
  set(delta "diff ${WORKDIR}/stdout.txt against it")
  find_program(DIFF_EXE diff)
  if(DIFF_EXE)
    execute_process(COMMAND "${DIFF_EXE}" -u "${GOLDEN}"
                            "${WORKDIR}/stdout.txt"
                    OUTPUT_VARIABLE delta)
    # message() reflows lines that start without whitespace; indented
    # lines are printed as they are.
    string(REPLACE "\n" "\n  " delta "  ${delta}")
  endif()
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}:\n${delta}")
endif()
