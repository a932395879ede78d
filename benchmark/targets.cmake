# The benchmark binary, in the top-level directory scope (see hook.cmake):
# it compiles with exactly the tree's flags and definitions and links the
# same `coterie` target users link.
add_executable(coterie_bench ${CMAKE_SOURCE_DIR}/benchmark/coterie_bench.cc)
target_link_libraries(coterie_bench PRIVATE coterie)

# Seconds-long shapes of all four workloads with every output check on.
add_test(NAME benchmark_smoke
         COMMAND coterie_bench --workload all --smoke --trace 1
                 --out-dir ${CMAKE_BINARY_DIR}/benchmark_smoke)
set_tests_properties(benchmark_smoke PROPERTIES
                     ENVIRONMENT COTERIE_THREADS=2 TIMEOUT 300)
