# Included at the end of the repository's project() call (run.py passes it as
# CMAKE_PROJECT_INCLUDE). Defers perfbench.cmake until the top-level
# CMakeLists.txt has defined every library target; EVAL fixes the path now,
# while CMAKE_CURRENT_LIST_DIR still names this directory.
include_guard(GLOBAL)
cmake_language(EVAL CODE
  "cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]] CALL include [[${CMAKE_CURRENT_LIST_DIR}/perfbench.cmake]])")
