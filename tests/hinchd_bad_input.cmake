# hinchd must answer malformed protocol lines with `err` and keep
# serving: hostile lines first, then valid tenants whose ok/done lines
# and the final `bye` prove the server survived them. The app keys are
# range-checked at `open`: an out-of-range factor, kernel, pips, quality
# or width would otherwise divide by zero or trip an assertion (at open,
# or at the first feed) and take every tenant down.
#
#   cmake -DHINCHD=<path to hinchd> -DWORK_DIR=<scratch dir> \
#         -P hinchd_bad_input.cmake
set(input "${WORK_DIR}/hinchd_bad_input.txt")
file(WRITE "${input}"
  "open pip depth=99999999999\n"
  "open pip depth=abc\n"
  "open pip depth=0\n"
  "open jpip factor=0\n"
  "open pip factor=0\n"
  "open blur kernel=4\n"
  "open pip pips=0\n"
  "open pip width=4294967360\n"
  "open mjpeg quality=0\n"
  "feed 0 1\n"
  "open jpip quality=0\n"
  "feed 0 1\n"
  "feed x 3\n"
  "open pip width=96 height=64 frames=8 depth=3\n"
  "feed 0 abc\n"
  "feed 0 99999999999999999999\n"
  "feed 0 99999999999999\n"
  "feed 0 0\n"
  "wait 99999999999\n"
  "cap -1\n"
  "feed 0 3\n"
  "wait 0\n"
  "close 0\n"
  "open jpip reconfigurable=1 width=96 height=64 frames=8\n"
  "feed 1 2\n"
  "wait 1\n"
  "close 1\n"
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
if(NOT nerr EQUAL 19)
  message(FATAL_ERROR "expected 19 err lines, got ${nerr}")
endif()
foreach(expect
    "\nok open 0 pip\n"
    "\nok feed 0 3\n"
    "\ndone 0 batch=0 status=done iters=3 "
    "\nok close 0\n"
    "\nok open 1 jpip\n"
    "\ndone 1 batch=0 status=done iters=2 "
    "\nok close 1\n"
    "\nbye\n")
  string(FIND "${out}" "${expect}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing '${expect}' in hinchd output")
  endif()
endforeach()
