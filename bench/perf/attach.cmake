# Adds the perf target to a configure of the repository root that
# lacks the `add_subdirectory(perf)` line in bench/CMakeLists.txt:
#
#   cmake -S . -B BUILD -DCMAKE_PROJECT_damq_repro_INCLUDE=bench/perf/attach.cmake
#
# CMake includes this file right after the root's project() call.  The
# deferred include reads bench/perf/CMakeLists.txt once the root
# CMakeLists.txt is done, so the target gets the root's C++ standard,
# compile options and build type.
file(STRINGS ${CMAKE_SOURCE_DIR}/bench/CMakeLists.txt hook
     REGEX "^add_subdirectory\\(perf\\)")
if(NOT hook)
    # A deferred call expands its arguments when it runs, where
    # CMAKE_CURRENT_LIST_DIR names the root; this variable does not.
    set(DAMQ_PERF_LISTS ${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt)
    cmake_language(DEFER CALL include ${DAMQ_PERF_LISTS})
endif()
