# Analyzer self-test: sciera_analyze over src, tests and bench of the
# golden fixture tree (tools/analyze_fixtures) must produce
# byte-identical JSON to the checked-in expected.json — one positive and
# one suppressed case per rule, so both detection and the NOLINT grammar
# are covered, plus negatives that pin each rule's scope. The tree sits
# outside the scanned directories because it holds deliberate violations.
# The run must exit 1 (fixtures contain real findings); a 0 exit means
# detection silently broke.
#
# Expected variables: BIN (sciera_analyze), FIXTURES (fixture root),
# OUT_DIR (scratch dir).
if(NOT DEFINED BIN OR NOT DEFINED FIXTURES OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "BIN, FIXTURES and OUT_DIR must be defined")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(actual "${OUT_DIR}/findings.json")

execute_process(
  COMMAND "${BIN}" --json "${FIXTURES}" src tests bench
  OUTPUT_FILE "${actual}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 1)
  message(FATAL_ERROR
          "sciera_analyze over the fixture tree exited ${status}, expected 1 "
          "(fixtures contain deliberate findings; 0 means detection broke)")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${actual}" "${FIXTURES}/expected.json"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  file(READ "${actual}" got)
  message(FATAL_ERROR
          "analyzer findings diverge from tools/analyze_fixtures/expected.json"
          " — if a rule legitimately changed, regenerate with\n"
          "  sciera_analyze --json <repo>/tools/analyze_fixtures src tests "
          "bench > tools/analyze_fixtures/expected.json\ngot:\n${got}")
endif()
