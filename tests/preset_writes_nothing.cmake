# Run the pcsim CLI at CLI with the space-separated ARGS inside the
# freshly emptied directory DIR; pass when it exits 0 and DIR is still
# empty afterwards (a preset writes results only where --json or
# --csv point, so it can never overwrite a committed reference).
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${CLI}" ${args}
                WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(GLOB_RECURSE left LIST_DIRECTORIES true "${DIR}/*")
file(REMOVE_RECURSE "${DIR}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pcsim ${ARGS}: exit ${rc}, expected 0\n${out}${err}")
endif()
if(left)
    message(FATAL_ERROR "pcsim ${ARGS} wrote files without --json: ${left}")
endif()
