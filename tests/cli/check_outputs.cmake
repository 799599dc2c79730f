# Run dynprof_cli once with every output flag and check that each requested
# file exists and is non-empty, and that --timeline and --report printed.
#
#   cmake -DCLI=<dynprof_cli> -DCLI_POLICY=<full|dynamic|adaptive|...> \
#         -DWORKDIR=<dir> [-DCLI_CHECK=<timefile|fault-plan>] -P check_outputs.cmake
#
# CLI_POLICY=dynamic runs the default (script-driven) path; any other value is
# passed as --policy.  CLI_CHECK=timefile also requests --timefile and checks
# it was written; CLI_CHECK=fault-plan also passes a one-line stall plan and
# checks the fault report was printed.
foreach(var CLI CLI_POLICY WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_outputs.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(outputs trace.txt trace.bin stats.json spans.json)
set(args smg98 --cpus 4 --scale 0.05 --telemetry spans
    --trace "${WORKDIR}/trace.txt" --trace-bin "${WORKDIR}/trace.bin"
    --telemetry-stats "${WORKDIR}/stats.json" --telemetry-trace "${WORKDIR}/spans.json"
    --timeline --report)
if(CLI_CHECK STREQUAL "timefile")
  list(APPEND outputs timefile.txt)
  list(APPEND args --timefile "${WORKDIR}/timefile.txt")
elseif(CLI_CHECK STREQUAL "fault-plan")
  file(WRITE "${WORKDIR}/stall.plan" "stall node=0 from=0s until=1s factor=2\n")
  list(APPEND args --fault-plan "${WORKDIR}/stall.plan")
elseif(DEFINED CLI_CHECK)
  message(FATAL_ERROR "unknown CLI_CHECK '${CLI_CHECK}'")
endif()
if(CLI_POLICY STREQUAL "dynamic")
  file(WRITE "${WORKDIR}/run.dynprof" "insert-file subset\nstart\nquit\n")
  list(APPEND args --script "${WORKDIR}/run.dynprof")
else()
  list(APPEND args --policy "${CLI_POLICY}")
endif()

execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE status OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "dynprof_cli exited ${status}\n${stdout}\n${stderr}")
endif()
foreach(name ${outputs})
  set(path "${WORKDIR}/${name}")
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "policy ${CLI_POLICY}: ${name} was requested but not written\n${stdout}")
  endif()
  file(SIZE "${path}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "policy ${CLI_POLICY}: ${name} is empty")
  endif()
endforeach()
set(markers "=== trace summary ===" "time-line: ")
if(CLI_CHECK STREQUAL "fault-plan")
  list(APPEND markers "fault report")
endif()
foreach(marker ${markers})
  string(FIND "${stdout}" "${marker}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "policy ${CLI_POLICY}: output lacks '${marker}'\n${stdout}")
  endif()
endforeach()
