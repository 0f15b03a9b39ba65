# Fails when any file under src/ reads the environment (getenv). Behaviour is
# set through code and config structs, never through environment variables,
# so a run's outcome depends only on its inputs and seed.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/no_getenv_check.cmake
if(NOT SRC_DIR)
  message(FATAL_ERROR "SRC_DIR is not set")
endif()
file(GLOB_RECURSE sources "${SRC_DIR}/*")
set(offenders "")
foreach(source IN LISTS sources)
  file(STRINGS "${source}" hits REGEX "getenv")
  if(hits)
    list(APPEND offenders "${source}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " listed)
  message(FATAL_ERROR "getenv under src/:\n  ${listed}")
endif()
list(LENGTH sources scanned)
message(STATUS "no getenv in ${scanned} files under ${SRC_DIR}")
