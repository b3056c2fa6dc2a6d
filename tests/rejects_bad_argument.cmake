# Runs the command after `--` in an empty WORK_DIR:
#   cmake -DWORK_DIR=DIR -P rejects_bad_argument.cmake -- PROGRAM ARGS...
# The program must exit 2 and leave the directory empty. A program that
# ignored or misread the argument would run its default work, exit 0 or 1,
# and (for the benches) write its result file there.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
file(GLOB left "${WORK_DIR}/*")
if(NOT code EQUAL 2)
  message(FATAL_ERROR "`${command}` exited with '${code}', want 2\n${err}")
endif()
if(left)
  message(FATAL_ERROR "`${command}` left files behind: ${left}")
endif()
