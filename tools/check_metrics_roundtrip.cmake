# CTest script: run adsd_cli decompose with the metrics/flight-recorder
# flags and gate the emitted artifact through adsd_obs --check. FORMAT
# selects the scenario: "prom" for the --metrics exposition round-trip, or
# "flight" for a --postmortem dump forced by an over-tight --budget.

if(FORMAT STREQUAL "flight")
  set(OUT postmortem_roundtrip.json)
  # A zero-ish budget expires immediately; anytime solvers stop at the
  # deadline and the flight recorder dumps the ring on the overrun.
  execute_process(
    COMMAND ${CLI} decompose --function erf --n 8 --free 4 --p 4
            --budget 0.000001 --postmortem ${OUT}
    RESULT_VARIABLE cli_rc)
  if(NOT cli_rc EQUAL 0)
    message(FATAL_ERROR "adsd_cli --postmortem run failed (rc ${cli_rc})")
  endif()
else()
  set(OUT metrics_roundtrip.prom)
  execute_process(
    COMMAND ${CLI} decompose --function erf --n 8 --free 4 --p 4
            --metrics ${OUT}
    RESULT_VARIABLE cli_rc)
  if(NOT cli_rc EQUAL 0)
    message(FATAL_ERROR "adsd_cli --metrics run failed (rc ${cli_rc})")
  endif()
endif()

execute_process(COMMAND ${OBS} ${OUT} --check RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "adsd_obs --check rejected ${OUT}")
endif()
