# Replays a scripted JSON-lines session through `wrpt_cli serve` and
# compares the responses with a golden file byte for byte. Only the
# legitimately volatile fields are normalized, exactly as in ci.yml's serve
# job: revision stamps are process-unique and elapsed_ms is wall time.
#
#   cmake -DCLI=<wrpt_cli> -DSESSION=<session.jsonl> -DGOLDEN=<file.golden>
#         [-DSETUP=<setup.jsonl>] [-DACTUAL=<normalized output file>]
#         -P serve_golden.cmake
#
# SETUP, when given, is replayed first through the same daemon; its
# responses (one per non-blank line) are discarded, as ci.yml's socket job
# discards socket_setup.jsonl's.

foreach(var CLI SESSION GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

if(DEFINED SETUP)
  execute_process(COMMAND ${CMAKE_COMMAND} -E cat ${SETUP} ${SESSION}
                  COMMAND ${CLI} serve - --threads 1
                  OUTPUT_VARIABLE actual
                  ERROR_VARIABLE log
                  RESULT_VARIABLE status)
else()
  execute_process(COMMAND ${CLI} serve ${SESSION} --threads 1
                  OUTPUT_VARIABLE actual
                  ERROR_VARIABLE log
                  RESULT_VARIABLE status)
endif()
if(NOT status EQUAL 0)
  message(FATAL_ERROR "wrpt_cli serve exited with ${status}:\n${log}")
endif()

if(DEFINED SETUP)
  # The daemon skips blank lines and answers every other line once. Count
  # the setup's requests by turning each non-blank line into one "x".
  file(READ ${SETUP} setup)
  string(REGEX REPLACE "[^\n]*[^ \t\r\n][^\n]*" "x" setup "${setup}")
  string(REGEX REPLACE "[^x]" "" setup "${setup}")
  string(LENGTH "${setup}" setup_requests)
  while(setup_requests GREATER 0)
    string(FIND "${actual}" "\n" eol)
    if(eol EQUAL -1)
      message(FATAL_ERROR "wrpt_cli serve answered fewer responses than "
                          "${SETUP} has requests")
    endif()
    math(EXPR eol "${eol} + 1")
    string(SUBSTRING "${actual}" ${eol} -1 actual)
    math(EXPR setup_requests "${setup_requests} - 1")
  endwhile()
endif()

string(REGEX REPLACE "\"revision\":[0-9]+" "\"revision\":0"
       actual "${actual}")
string(REGEX REPLACE "\"old_revision\":[0-9]+" "\"old_revision\":0"
       actual "${actual}")
string(REGEX REPLACE "\"elapsed_ms\":[0-9.e+-]+" "\"elapsed_ms\":0"
       actual "${actual}")

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  if(DEFINED ACTUAL)
    file(WRITE ${ACTUAL} "${actual}")
    set(hint "; the normalized output is in ${ACTUAL}")
  endif()
  message(FATAL_ERROR "serve responses differ from ${GOLDEN}${hint}")
endif()
