# hinchd must answer malformed protocol lines with `err` and keep
# serving: hostile lines first, then one valid tenant whose ok/done lines
# and the final `bye` prove the server survived them.
#
#   cmake -DHINCHD=<path to hinchd> -DWORK_DIR=<scratch dir> \
#         -P hinchd_bad_input.cmake
set(input "${WORK_DIR}/hinchd_bad_input.txt")
file(WRITE "${input}"
  "open pip depth=99999999999\n"
  "open pip depth=abc\n"
  "open pip depth=0\n"
  "feed x 3\n"
  "open pip width=96 height=64 frames=8 depth=3\n"
  "feed 0 abc\n"
  "feed 0 99999999999999999999\n"
  "feed 0 0\n"
  "wait 99999999999\n"
  "cap -1\n"
  "feed 0 3\n"
  "wait 0\n"
  "close 0\n"
  "quit\n")
execute_process(COMMAND "${HINCHD}" --workers=1
                INPUT_FILE "${input}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err_out
                RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hinchd exited with ${rc}: ${err_out}")
endif()
string(REGEX MATCHALL "(^|\n)err [^\n]*" errs "${out}")
list(LENGTH errs nerr)
if(NOT nerr EQUAL 9)
  message(FATAL_ERROR "expected 9 err lines, got ${nerr}")
endif()
foreach(expect
    "\nok open 0 pip\n"
    "\nok feed 0 3\n"
    "\ndone 0 batch=0 status=done iters=3 "
    "\nok close 0\n"
    "\nbye\n")
  string(FIND "${out}" "${expect}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing '${expect}' in hinchd output")
  endif()
endforeach()
