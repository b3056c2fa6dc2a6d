# Runs BENCH --help in an empty WORK_DIR: the bench must exit 2 and leave the
# directory empty (a bench that ignored the flag would run its default sweep
# and write its result file there).
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}" --help
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
file(GLOB left "${WORK_DIR}/*")
if(NOT code EQUAL 2)
  message(FATAL_ERROR "${BENCH} --help exited with '${code}', want 2\n${err}")
endif()
if(left)
  message(FATAL_ERROR "${BENCH} --help left files behind: ${left}")
endif()
