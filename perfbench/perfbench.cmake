# Build of the benchmark program. run.py configures the repository's own
# top-level build with CMAKE_PROJECT_INCLUDE=perfbench/attach.cmake, which
# includes this file after the top-level CMakeLists.txt has run, so the
# program links the libraries exactly as the repository builds them (same
# options, flags and source lists).
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
add_executable(snic_perfbench
  ${PERFBENCH_DIR}/src/main.cc
  ${PERFBENCH_DIR}/src/scenario_sweep.cc
  ${PERFBENCH_DIR}/src/tenant_lifecycle.cc
  ${PERFBENCH_DIR}/src/datapath_chain.cc
  ${PERFBENCH_DIR}/src/fig5_replay.cc
)
target_link_libraries(snic_perfbench
  snic_scenario snic_core snic_mgmt snic_nf snic_accel snic_sim snic_trace
  snic_net snic_crypto snic_common snic_fault snic_obs snic_runtime)
target_include_directories(snic_perfbench PRIVATE ${CMAKE_SOURCE_DIR})
