# CTest script: one adsd_cli decompose with --obs-dir, then the provenance
# join gate — the bundle must land under exactly one run_id directory, hold
# exactly the six artifacts, and each must pass adsd_obs --check
# --expect-run-id <run_id>.

set(BUNDLE obs_bundle_test)
file(REMOVE_RECURSE ${BUNDLE})
execute_process(
  COMMAND ${CLI} decompose --function erf --n 8 --free 4 --p 4
          --obs-dir ${BUNDLE}
  RESULT_VARIABLE cli_rc)
if(NOT cli_rc EQUAL 0)
  message(FATAL_ERROR "adsd_cli --obs-dir run failed (rc ${cli_rc})")
endif()

file(GLOB runs RELATIVE ${CMAKE_CURRENT_SOURCE_DIR}/${BUNDLE} ${BUNDLE}/*)
list(LENGTH runs n_runs)
if(NOT n_runs EQUAL 1)
  message(FATAL_ERROR
          "expected exactly one run_id directory under ${BUNDLE}, got: ${runs}")
endif()
list(GET runs 0 RID)
set(DIR ${BUNDLE}/${RID})

set(ARTIFACTS log.jsonl trace.json report.json qor.json metrics.prom
    flight.json)
file(GLOB present RELATIVE ${CMAKE_CURRENT_SOURCE_DIR}/${DIR} ${DIR}/*)
list(LENGTH present n_present)
list(LENGTH ARTIFACTS n_expected)
if(NOT n_present EQUAL n_expected)
  message(FATAL_ERROR
          "obs bundle holds ${n_present} files, expected ${n_expected}: "
          "${present}")
endif()

foreach(artifact ${ARTIFACTS})
  if(NOT EXISTS ${DIR}/${artifact})
    message(FATAL_ERROR "obs bundle missing ${artifact} under ${DIR}")
  endif()
  execute_process(
    COMMAND ${OBS} ${DIR}/${artifact} --check --expect-run-id ${RID}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "adsd_obs rejected ${DIR}/${artifact} for run_id ${RID}")
  endif()
endforeach()
