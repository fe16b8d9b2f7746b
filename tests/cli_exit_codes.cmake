# Exercises oregami_map's exit-code contract:
#   0 ok, 1 internal, 2 usage, 3 bad input, 4 mapping infeasible.
# Run via:  cmake -DOREGAMI_MAP=... -DSAMPLES=... -P cli_exit_codes.cmake
function(expect_exit expected)
  execute_process(COMMAND ${OREGAMI_MAP} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT code EQUAL expected)
    message(FATAL_ERROR
            "oregami_map ${ARGN}: expected exit ${expected}, got ${code}")
  endif()
endfunction()

# 0: successful runs, healthy and degraded.
expect_exit(0 --list-programs)
expect_exit(0 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4)
expect_exit(0 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --inject-faults p5 --repair)
expect_exit(0 --larcs ${SAMPLES}/wavefront.larcs --bind n=8
            --topology mesh:8x8)

# 0: extended portfolio candidates + Pareto report.
expect_exit(0 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --portfolio 2 --anneal 2 --heft --pareto)

# 0: multilevel V-cycle, auto depth and explicit level cap.
expect_exit(0 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --multilevel)
expect_exit(0 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --multilevel 2)

# 2: usage errors.
expect_exit(2 --frobnicate)
expect_exit(2)                                    # missing required args
expect_exit(2 --program jacobi)                   # no topology
expect_exit(2 --program jacobi --topology mesh:4x4 --repair)  # no faults
expect_exit(2 --program jacobi --topology mesh:4x4 --jobs -1)
expect_exit(2 --program jacobi --topology mesh:4x4 --portfolio x)

# 2: a time budget past 2^40 ms, where steady_clock's nanosecond count
# would overflow at larger values; 2^40 itself runs.
expect_exit(2 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --portfolio 2 --time-budget 1099511627777)
expect_exit(0 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --portfolio 2 --time-budget 1099511627776)

# 2: mutually-incompatible flag combos (each of these flags describes
# or extends the portfolio search, so it is a usage error without
# --portfolio N).
expect_exit(2 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --explain)
expect_exit(2 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --anneal 4)
expect_exit(2 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --heft)
expect_exit(2 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --pareto)
expect_exit(2 --program jacobi --topology mesh:4x4 --portfolio 2
            --anneal -1)
expect_exit(2 --program jacobi --topology mesh:4x4 --portfolio 2
            --anneal x)

# 2: multilevel usage errors (bad level cap; portfolio conflict --
# both flags claim the whole strategy selection).
expect_exit(2 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --multilevel 0)
expect_exit(2 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --multilevel -3)
expect_exit(2 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --multilevel 99)
expect_exit(2 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --multilevel --portfolio 4)

# 3: bad input.
expect_exit(3 --larcs /nonexistent/file.larcs --topology mesh:4x4)
expect_exit(3 --program no-such-program --topology mesh:4x4)
expect_exit(3 --program jacobi --bind n=8 --bind iters=10
            --topology badfamily:9)
expect_exit(3 --program jacobi --bind n=8 --bind iters=10
            --topology ring:2)    # below the ring factory's minimum
expect_exit(3 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --inject-faults p99)
expect_exit(3 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --inject-faults "!!")
expect_exit(3 --program jacobi --topology mesh:4x4)  # missing bindings

# 4: mapping infeasible (machine fully dead).
expect_exit(4 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:2x2 --inject-faults p0,p1,p2,p3)

# 0: --digest prints the server cache key instead of mapping; the same
# inputs that map successfully must digest successfully.
expect_exit(0 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --digest)
expect_exit(3 --program no-such-program --topology mesh:4x4 --digest)

# ---------------------------------------------------------------------
# oregami_serve: process exit codes (0 clean drain even when every job
# fails, 2 usage). Per-job failures are result lines, not exits.
# ---------------------------------------------------------------------
function(expect_serve_exit expected input)
  execute_process(COMMAND ${CMAKE_COMMAND} -E echo "${input}"
                  COMMAND ${OREGAMI_SERVE} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT code EQUAL expected)
    message(FATAL_ERROR
            "oregami_serve ${ARGN} < '${input}': expected exit "
            "${expected}, got ${code}")
  endif()
endfunction()

# 0: clean drains -- a good job, an empty stream, and every flavour of
# bad job (malformed JSON, unknown program, unknown topology, expired
# deadline) must all leave the daemon alive to exit 0.
expect_serve_exit(0 "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\"}")
expect_serve_exit(0 "")
expect_serve_exit(0 "this is not json")
expect_serve_exit(0 "{\"id\":2,\"program\":\"nope\",\"topology\":\"mesh:4x4\"}")
expect_serve_exit(0 "{\"id\":3,\"program\":\"jacobi\",\"topology\":\"taurus\"}")
expect_serve_exit(0 "{\"id\":4,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\",\"deadline_ms\":-1}"
                  --deterministic)

# 2: usage errors kill the daemon before it reads anything.
expect_serve_exit(2 "" --frobnicate)
expect_serve_exit(2 "" --jobs -2)
expect_serve_exit(2 "" --queue-capacity 0)
expect_serve_exit(2 "" --cache-capacity x)

# 2: a bad --failpoints schedule is a usage error (quotable message on
# stderr); a valid schedule that injects a per-job failure is not -- the
# failure becomes a code-1 result line and the drain still exits 0.
expect_serve_exit(2 "" --failpoints "a.b:frobnicate")
expect_serve_exit(2 "" --failpoints "a.b:err@p5")
expect_serve_exit(0 "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\"}"
                  --failpoints "job.run:throw@1")

# ---------------------------------------------------------------------
# Telemetry flags: malformed values and dangling dependents are usage
# errors; an unwritable metrics path degrades (warning on stderr) but
# the daemon still drains to exit 0.
# ---------------------------------------------------------------------
set(METRICS_FILE ${CMAKE_CURRENT_BINARY_DIR}/exit_codes_metrics.prom)
file(REMOVE ${METRICS_FILE})
expect_serve_exit(2 "" --metrics-interval x --metrics-file ${METRICS_FILE})
expect_serve_exit(2 "" --metrics-interval 0 --metrics-file ${METRICS_FILE})
expect_serve_exit(2 "" --metrics-interval 5)   # no --metrics-file
expect_serve_exit(2 "" --log-level bogus --log ${CMAKE_CURRENT_BINARY_DIR}/exit_codes.log)
expect_serve_exit(2 "" --log-level info)       # no --log
expect_serve_exit(0 "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\"}"
                  --metrics-file ${METRICS_FILE})
if(NOT EXISTS ${METRICS_FILE})
  message(FATAL_ERROR
          "oregami_serve --metrics-file did not create ${METRICS_FILE}")
endif()
file(REMOVE ${METRICS_FILE})
expect_serve_exit(0 "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\"}"
                  --metrics-file /nonexistent-dir/metrics.prom)

# oregami_map --metrics-file follows the same contract: a one-shot dump
# on a writable path, degrade-don't-die on an unwritable one.
expect_exit(0 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --metrics-file ${METRICS_FILE})
if(NOT EXISTS ${METRICS_FILE})
  message(FATAL_ERROR
          "oregami_map --metrics-file did not create ${METRICS_FILE}")
endif()
file(REMOVE ${METRICS_FILE})
expect_exit(0 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --metrics-file /nonexistent-dir/metrics.prom)
expect_exit(2 --program jacobi --bind n=8 --bind iters=10
            --topology mesh:4x4 --metrics-file)   # missing path argument

# ---------------------------------------------------------------------
# Crash-safe persistence: --cache-file cold boot, warm boot, and a
# degraded (unwritable) path must all drain to exit 0; the persisted
# file is inspectable via oregami_map --cache-file (0 valid, 3 missing).
# ---------------------------------------------------------------------
set(CACHE_FILE ${CMAKE_CURRENT_BINARY_DIR}/exit_codes_cache.bin)
file(REMOVE ${CACHE_FILE})
expect_serve_exit(0 "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\"}"
                  --cache-file ${CACHE_FILE})
if(NOT EXISTS ${CACHE_FILE})
  message(FATAL_ERROR "oregami_serve --cache-file did not create ${CACHE_FILE}")
endif()
expect_serve_exit(0 "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\"}"
                  --cache-file ${CACHE_FILE})
expect_serve_exit(0 "{\"id\":1,\"program\":\"jacobi\",\"bind\":{\"n\":8,\"iters\":10},\"topology\":\"mesh:4x4\"}"
                  --cache-file /nonexistent-dir/cache.bin)
expect_exit(0 --cache-file ${CACHE_FILE})
expect_exit(3 --cache-file ${CACHE_FILE}.does-not-exist)
file(REMOVE ${CACHE_FILE})

# ---------------------------------------------------------------------
# Signals: SIGTERM is handled like SIGINT -- drain, flush, exit 0.
# ---------------------------------------------------------------------
if(UNIX)
  # `sleep 3` keeps stdin open so the daemon is genuinely blocked in its
  # read loop when SIGTERM arrives ($! is the last pipeline element).
  execute_process(
    COMMAND sh -c "sleep 3 | ${OREGAMI_SERVE} --deterministic > /dev/null 2>&1 & pid=$!; sleep 0.2; kill -TERM $pid 2>/dev/null; wait $pid"
    RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR
            "oregami_serve under SIGTERM: expected clean exit 0, got ${code}")
  endif()
endif()
