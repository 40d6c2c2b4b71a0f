# Runs one golden case (see cases.txt):
#
#   cmake -DSODCTL=<sodctl> -DGOLDEN_DIR=<tests/golden> -DWORK_DIR=<dir>
#         -DCASE=<case> -DCHECK=exact|header "-DARGS=<sodctl arguments>"
#         [-DUPDATE=ON] -P check.cmake
#
# `sodctl ARGS` runs in a fresh WORK_DIR.  An exact case compares stdout,
# stderr and the exit code against GOLDEN_DIR/CASE.out, and a --json file
# against the golden of the same name; on a mismatch it prints the golden's
# path and the first differing line.  UPDATE=ON rewrites those goldens
# instead.  The `list` case also fails when a scenario it prints has no
# smoke-config line in cases.txt.
cmake_minimum_required(VERSION 3.16)

function(fail msg)
  message(FATAL_ERROR "golden case '${CASE}': ${msg}")
endfunction()

# Compares two texts; on a difference, fails naming the golden's path and
# the first line that differs.
function(compare golden actual)
  if(NOT EXISTS "${golden}")
    fail("missing golden ${golden} (regenerate with the golden-update target)")
  endif()
  file(READ "${golden}" expected)
  if("${expected}" STREQUAL "${actual}")
    return()
  endif()
  set(line 1)
  while(TRUE)
    string(REGEX MATCH "^[^\n]*" exp_line "${expected}")
    string(REGEX MATCH "^[^\n]*" act_line "${actual}")
    if(NOT exp_line STREQUAL act_line OR NOT expected MATCHES "\n" OR NOT actual MATCHES "\n")
      break()
    endif()
    string(LENGTH "${exp_line}\n" skip)
    string(SUBSTRING "${expected}" ${skip} -1 expected)
    string(SUBSTRING "${actual}" ${skip} -1 actual)
    math(EXPR line "${line} + 1")
  endwhile()
  string(CONCAT msg "output differs from ${golden}\n"
         "first difference at line ${line}:\n"
         "  expected: ${exp_line}\n"
         "  actual:   ${act_line}\n"
         "If the change is intended, regenerate with the golden-update target "
         "and review the diff.")
  fail("${msg}")
endfunction()

separate_arguments(argv UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${SODCTL}" ${argv}
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
set(actual "${out}${err}[exit ${rc}]\n")
set(json "")
if(ARGS MATCHES "--json ([^ ]+)")
  set(json "${CMAKE_MATCH_1}")
  if(NOT EXISTS "${WORK_DIR}/${json}")
    fail("sodctl wrote no ${json}\n${actual}")
  endif()
  file(READ "${WORK_DIR}/${json}" json_body)
endif()

if(CHECK STREQUAL "header")
  if(NOT rc EQUAL 0)
    fail("exit ${rc}, expected 0\n${actual}")
  endif()
  string(REGEX REPLACE "^[a-z]+ ([a-z0-9_]+).*" "\\1" name "${ARGS}")
  foreach(want "\"bench\": \"${name}\"" "\"schema_version\": 1")
    string(FIND "${json_body}" "${want}" at)
    if(at EQUAL -1)
      fail("'${json}' lacks ${want}")
    endif()
  endforeach()
  return()
endif()

if(UPDATE)
  file(WRITE "${GOLDEN_DIR}/${CASE}.out" "${actual}")
  if(NOT json STREQUAL "")
    file(WRITE "${GOLDEN_DIR}/${json}" "${json_body}")
  endif()
  return()
endif()

compare("${GOLDEN_DIR}/${CASE}.out" "${actual}")
if(NOT json STREQUAL "")
  compare("${GOLDEN_DIR}/${json}" "${json_body}")
endif()

if(CASE STREQUAL "list")
  file(READ "${GOLDEN_DIR}/cases.txt" case_lines)
  string(REGEX MATCHALL "\n(app|bench|example) +[a-z0-9_]+" listed "${out}")
  foreach(entry IN LISTS listed)
    string(REGEX REPLACE "^\n(app|example) +" "run " want "${entry}")
    string(REGEX REPLACE "^\nbench +" "bench " want "${want}")
    if(NOT case_lines MATCHES "\n[a-z0-9_]+ +[a-z]+ +${want} --smoke --nodes 2[ \n]")
      fail("no '${want} --smoke --nodes 2' line in ${GOLDEN_DIR}/cases.txt")
    endif()
  endforeach()
endif()
