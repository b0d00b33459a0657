# Replays a scripted JSON-lines session through `wrpt_cli serve` and
# compares the responses with a golden file byte for byte. Only the
# legitimately volatile fields are normalized, exactly as in ci.yml's serve
# job: revision stamps are process-unique, elapsed_ms is wall time, and
# simd_isa/simd_lanes depend on the host.
#
#   cmake -DCLI=<wrpt_cli> -DSESSION=<session.jsonl> -DGOLDEN=<file.golden>
#         [-DACTUAL=<normalized output file>] -P serve_golden.cmake

foreach(var CLI SESSION GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "serve_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${CLI} serve ${SESSION} --threads 1
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE log
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "wrpt_cli serve exited with ${status}:\n${log}")
endif()

string(REGEX REPLACE "\"revision\":[0-9]+" "\"revision\":0"
       actual "${actual}")
string(REGEX REPLACE "\"old_revision\":[0-9]+" "\"old_revision\":0"
       actual "${actual}")
string(REGEX REPLACE "\"elapsed_ms\":[0-9.e+-]+" "\"elapsed_ms\":0"
       actual "${actual}")
string(REGEX REPLACE "\"simd_isa\":\"[a-z0-9_]+\"" "\"simd_isa\":\"any\""
       actual "${actual}")
string(REGEX REPLACE "\"simd_lanes\":[0-9]+" "\"simd_lanes\":0"
       actual "${actual}")

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  if(DEFINED ACTUAL)
    file(WRITE ${ACTUAL} "${actual}")
    set(hint "; the normalized output is in ${ACTUAL}")
  endif()
  message(FATAL_ERROR "serve responses differ from ${GOLDEN}${hint}")
endif()
