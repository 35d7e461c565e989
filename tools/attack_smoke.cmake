# Attack-soak smoke: the forged-flood plan (hostile MAC floods + a
# flash crowd on top of a link flap) must replay byte-identically across
# two separate same-seed processes with a schema-valid attack section
# (replay_check.cmake, with the fields passed in by ctest), and prove the
# defenses earn their keep: with the in-path LightningFilters, router
# admission classes, and SCMP suppression enabled, no hostile packet may
# reach a socket, and legitimate-traffic delivery must STRICTLY beat the
# same run with --no-defenses.
#
# Expected variables: those of replay_check.cmake, with ARGS naming the
# defended forged-flood run.
include("${CMAKE_CURRENT_LIST_DIR}/replay_check.cmake")
set(report "${output}")

set(off "${OUT_DIR}/undefended.out")
execute_process(
  COMMAND "${BIN}" ${run_args} --no-defenses
  OUTPUT_FILE "${off}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} --no-defenses failed: ${status}")
endif()

# Defenses on: the filter must shut out every hostile packet.
string(REGEX MATCH "\"attack_delivered\": ([0-9]+)" _ "${report}")
if(NOT CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR
          "defended run delivered ${CMAKE_MATCH_1} hostile packets:\n${report}")
endif()

# The A/B ordering gate: defended legitimate delivery strictly beats
# undefended under the identical flood.
string(REGEX MATCH "\"legit_ratio\": ([0-9.]+)" _ "${report}")
set(ratio_on "${CMAKE_MATCH_1}")
file(READ "${off}" off_report)
string(REGEX MATCH "\"legit_ratio\": ([0-9.]+)" _ "${off_report}")
set(ratio_off "${CMAKE_MATCH_1}")
if(NOT ratio_on GREATER ratio_off)
  message(FATAL_ERROR
          "defenses-on legit delivery (${ratio_on}) does not strictly beat "
          "defenses-off (${ratio_off})")
endif()

# Undefended, the flood must actually have hurt: hostile deliveries
# nonzero, so the gates above are meaningful.
string(REGEX MATCH "\"attack_delivered\": ([0-9]+)" _ "${off_report}")
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR
          "undefended run delivered no hostile packets — flood is a no-op:"
          "\n${off_report}")
endif()
