# Runs bmx_sim (-DBMX_SIM=<path>) with each argument list it must reject and
# requires exit status 2, the usage on stderr and nothing on stdout.  Prints
# the usage once at the end, which the ctest pass regex looks for; a failure
# stops before that, so a crash or a wrong status fails the test.
foreach(case IN ITEMS
    "0"              # zero nodes
    "4 0 10"         # zero objects
    "4 x"            # a non-numeric positional
    "4 8 10 1 5"     # a fifth positional
    "4 --bogus"      # an unknown flag
    "4 8 --loss"     # --loss without a value
    "--loss 101"     # --loss above 100
    "--loss -1"      # --loss below 0
    "--loss abc")    # --loss not a number
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${BMX_SIM}" ${args}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status STREQUAL "2" OR NOT out STREQUAL "" OR NOT err MATCHES "usage: bmx_sim")
    message(FATAL_ERROR "bmx_sim ${case}: status '${status}', expected 2 with the usage "
                        "on stderr only")
  endif()
endforeach()
message("${err}")
