# One stdin stream through oregami_serve, carrying one-line inputs that
# kill a daemon without input bounds: topology specs past a factory's
# precondition or the size caps, JSON nested 30,000 deep, and inline
# LaRCS nested 30,000 deep in an expression and in a phase expression,
# or chaining 300,000 `+` or `^` operators into one left-deep tree, or
# dividing LONG_MIN by -1 or wrapping a product past LONG_MAX. Good jobs
# run in between, among them LONG_MIN mod -1 and pow(1, 4e18). The
# daemon must answer every line, give each bad line a code-2 or code-3
# error line, and drain to exit 0.
# Run via:  cmake -DOREGAMI_SERVE=... -DWORK_DIR=... -P daemon_survives.cmake
set(INPUT ${WORK_DIR}/daemon_survives_input.jsonl)
file(WRITE ${INPUT} "")
set(num_lines 0)
set(bad_lines "")

# Appends one input line; `kind` is "good" or "bad".
function(send text kind)
  file(APPEND ${INPUT} "${text}\n")
  math(EXPR n "${num_lines} + 1")
  set(num_lines ${n} PARENT_SCOPE)
  if(kind STREQUAL "bad")
    set(bad_lines ${bad_lines} ${n} PARENT_SCOPE)
  endif()
endfunction()

set(good "{\"id\":\"good\",\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\"}")
send("${good}" good)

foreach(spec ring:2 torus:2x2 hypercube:21 mesh:0x4 cbt:0 star:1 chain:0
             butterfly:0 mesh3d:0x1x1 complete:1 cbt:31 ring:99999999999
             complete:100000)
  send("{\"id\":\"${spec}\",\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"${spec}\"}" bad)
  send("${good}" good)
endforeach()

string(REPEAT "[" 30000 open)
string(REPEAT "]" 30000 close)
send("${open}${close}" bad)
send("${good}" good)

string(REPEAT "(" 30000 open)
string(REPEAT ")" 30000 close)
set(head "algorithm t(n); nodetype x[i: 0 .. n-1];")
send("{\"id\":\"deep-expr\",\"larcs\":\"${head} comphase a { x(i) -> x((i+1) mod n) volume ${open}1${close}; } phases a;\",\"bind\":{\"n\":4},\"topology\":\"ring:4\"}" bad)
send("${good}" good)
send("{\"id\":\"deep-phases\",\"larcs\":\"${head} comphase a { x(i) -> x((i+1) mod n); } phases ${open}a${close};\",\"bind\":{\"n\":4},\"topology\":\"ring:4\"}" bad)
send("${good}" good)

string(REPEAT "+1" 299999 sum)
send("{\"id\":\"long-sum\",\"larcs\":\"${head} comphase a { x(i) -> x((i+1) mod n) volume 1${sum}; } phases a;\",\"bind\":{\"n\":4},\"topology\":\"ring:4\"}" bad)
send("${good}" good)
string(REPEAT "^1" 300000 carets)
send("{\"id\":\"long-repeat\",\"larcs\":\"${head} comphase a { x(i) -> x((i+1) mod n); } phases a${carets};\",\"bind\":{\"n\":4},\"topology\":\"ring:4\"}" bad)
send("${good}" good)

# Inline LaRCS whose const `a` is `value` and whose edges carry `volume`.
macro(send_const id value volume kind)
  send("{\"id\":\"${id}\",\"larcs\":\"algorithm t(n); const a = ${value}; nodetype x[i: 0 .. n-1]; comphase c { x(i) -> x((i+1) mod n) volume ${volume}; } phases c;\",\"bind\":{\"n\":4},\"topology\":\"ring:4\"}" ${kind})
endmacro()
set(lo "(0 - 4611686018427387904) * 2")
send_const(div-overflow "${lo}" "1 + a / (0 - 1)" bad)
send("${good}" good)
send_const(mod-minus-one "${lo}" "1 + a mod (0 - 1)" good)
send_const(mul-wraps "4611686018427387904 * 4 + 3" "a" bad)
send("${good}" good)
send_const(pow-of-one "pow(1, 4000000000000000000)" "a" good)

execute_process(COMMAND ${OREGAMI_SERVE} --deterministic
                INPUT_FILE ${INPUT}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE code
                ERROR_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "oregami_serve died on the stream: exit ${code}")
endif()

# One result line per input line, then the stats line.
string(REPLACE ";" "," out "${out}")
string(REPLACE "\n" ";" out_lines "${out}")
set(results 0)
set(ok 0)
foreach(line IN LISTS out_lines)
  if(line MATCHES "^{\"id\":")
    math(EXPR results "${results} + 1")
  endif()
  if(line MATCHES "\"status\":\"ok\"")
    math(EXPR ok "${ok} + 1")
  endif()
endforeach()
if(NOT results EQUAL num_lines)
  message(FATAL_ERROR
          "${num_lines} input lines but ${results} result lines:\n${out}")
endif()
list(LENGTH bad_lines num_bad)
math(EXPR num_good "${num_lines} - ${num_bad}")
if(NOT ok EQUAL num_good)
  message(FATAL_ERROR "${num_good} good lines but ${ok} ok results:\n${out}")
endif()
foreach(n IN LISTS bad_lines)
  if(NOT out MATCHES "\"line\":${n},\"status\":\"error\",\"code\":[23],")
    message(FATAL_ERROR
            "input line ${n} got no code-2 or code-3 error line:\n${out}")
  endif()
endforeach()
