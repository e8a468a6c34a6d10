# Regenerates the fuzz seed corpus and fails unless it matches the
# checked-in tests/fuzz/corpus/ file for file, byte for byte.
#
#   cmake -DGENERATOR=<make_seed_corpus> -DOUT=<dir> -DCORPUS=<dir> -P ...
file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${GENERATOR}" "${OUT}" RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "make_seed_corpus failed: ${rc}")
endif()

file(GLOB_RECURSE fresh RELATIVE "${OUT}" "${OUT}/*")
file(GLOB_RECURSE checked_in RELATIVE "${CORPUS}" "${CORPUS}/*")
list(SORT fresh)
list(SORT checked_in)
if(NOT fresh STREQUAL checked_in)
  message(FATAL_ERROR "seed file lists differ:\n  generated: ${fresh}\n"
                      "  checked in: ${checked_in}")
endif()
foreach(seed IN LISTS fresh)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT}/${seed}" "${CORPUS}/${seed}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "regenerated seed ${seed} differs from the "
                        "checked-in copy")
  endif()
endforeach()
