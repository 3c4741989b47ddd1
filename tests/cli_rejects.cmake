# Run the pcsim CLI at CLI with the space-separated ARGS; pass when it
# exits with status 1 and its stderr contains EXPECT verbatim.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "pcsim ${ARGS}: exit ${rc}, expected 1\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "pcsim ${ARGS}: stderr lacks '${EXPECT}':\n${err}")
endif()
