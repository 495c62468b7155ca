# CTest script for a negative gate: runs the command given after "--" and
# passes only if it exits with status EXIT (a non-zero integer, so a crash
# never counts) and its stdout or stderr matches the regular expression
# EXPECT. A gate that checked the exit status alone would also pass on an
# unrelated failure, such as a parse error in the fixture itself.
#
#   cmake -DEXIT=<code> -DEXPECT=<regex> -P check_fails_with.cmake -- <cmd>...

cmake_minimum_required(VERSION 3.16)

set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT EXIT OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXIT=<code> -DEXPECT=<regex> "
                      "-P check_fails_with.cmake -- <cmd>...")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(REPLACE ";" " " shown "${cmd}")
if(NOT rc STREQUAL EXIT)
  message(FATAL_ERROR "expected exit ${EXIT}, got '${rc}' from: ${shown}\n"
                      "${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit ${rc} as expected, but the output does not "
                      "match '${EXPECT}': ${shown}\n${out}${err}")
endif()
