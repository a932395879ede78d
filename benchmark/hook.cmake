# Adds the benchmark to the tree's own build without editing it:
#
#   cmake -S . -B build-bench -DCMAKE_PROJECT_INCLUDE=$PWD/benchmark/hook.cmake
#
# CMake includes this file right after the top-level project() call. The
# benchmark links the tree's `coterie` target, which exists only once the
# top-level CMakeLists.txt has run to its end, so the include of
# targets.cmake is deferred to then. (CMake refuses a deferred
# add_subdirectory; a deferred include works.) The deferred arguments are
# evaluated when the call runs, hence CMAKE_SOURCE_DIR rather than
# CMAKE_CURRENT_LIST_DIR.
include_guard(GLOBAL)
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
               CALL include ${CMAKE_SOURCE_DIR}/benchmark/targets.cmake)
