# Run the pcsim CLI at CLI with the space-separated ARGS; pass when it
# exits with status 0 and its stdout contains EXPECT verbatim.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pcsim ${ARGS}: exit ${rc}, expected 0\n${out}${err}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "pcsim ${ARGS}: stdout lacks '${EXPECT}':\n${out}")
endif()
