# Runs the command after `--` in an empty WORK_DIR:
#   cmake -DWORK_DIR=DIR -DWANT_EXIT=CODE [-DWANT_STDOUT=FILE]
#         -P run_in_empty_dir.cmake -- PROGRAM ARGS...
# The program must exit with WANT_EXIT and leave the directory empty; with
# WANT_STDOUT, its standard output must also equal FILE byte for byte.
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
if(NOT code EQUAL WANT_EXIT)
  message(FATAL_ERROR
    "`${command}` exited with '${code}', want ${WANT_EXIT}\n${out}${err}")
endif()
if(left)
  message(FATAL_ERROR "`${command}` left files behind: ${left}")
endif()
if(DEFINED WANT_STDOUT)
  file(READ "${WANT_STDOUT}" want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR
      "`${command}` printed other output than ${WANT_STDOUT}:\n${out}")
  endif()
endif()
