# Pins reading of a log directory written by an earlier build: the
# committed fixture (shard-*.wal, seqorder.log, checkpoint.ode from
# `ode-waldump --gen-fixture`) must dump cleanly, and the shard logs that
# today's `--gen-fixture` writes must match it byte for byte. seqorder.log
# is only read, not compared: its batch txn ids vary from run to run.
#
# Inputs: -DWALDUMP=<ode-waldump binary> -DFIXTURE=<fixture dir>
#         -DWORK=<scratch dir for a fresh fixture>.

execute_process(COMMAND ${WALDUMP} --summary ${FIXTURE}
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ode-waldump --summary exited ${rc}:\n${out}${err}")
endif()
if(NOT out MATCHES "seqorder.log: records=4 ")
  message(FATAL_ERROR "fixture order log did not read 4 records:\n${out}")
endif()
if(out MATCHES "TORN|GAP")
  message(FATAL_ERROR "fixture reported damage:\n${out}")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
execute_process(COMMAND ${WALDUMP} --gen-fixture ${WORK}
  OUTPUT_VARIABLE gen_out ERROR_VARIABLE gen_err RESULT_VARIABLE gen_rc)
if(NOT gen_rc EQUAL 0)
  message(FATAL_ERROR "--gen-fixture exited ${gen_rc}:\n${gen_out}${gen_err}")
endif()
foreach(log shard-0.wal shard-1.wal)
  file(READ ${FIXTURE}/${log} want HEX)
  file(READ ${WORK}/${log} got HEX)
  if(NOT want STREQUAL got)
    message(FATAL_ERROR "${log} written today differs from the fixture")
  endif()
endforeach()
