# Run a bench command line that carries an invalid knob value and
# require the parse-time rejection: exit status 2 and a message on
# stderr naming the knob.
#
#   cmake -DKNOB=<name> -P expect_knob_rejected.cmake -- <command...>
#
# The command runs through `cmake -E env`, so it may start with
# VAR=value assignments.

set(cmd "")
set(seen_sep FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_sep)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_sep TRUE)
    endif()
endforeach()
if(NOT cmd OR NOT DEFINED KNOB)
    message(FATAL_ERROR
        "usage: cmake -DKNOB=<name> -P ${CMAKE_SCRIPT_MODE_FILE} -- <command...>")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E env ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit status 2, got '${rc}'\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "invalid ${KNOB} " at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name ${KNOB}:\n${err}")
endif()
message(STATUS "rejected as expected: ${err}")
