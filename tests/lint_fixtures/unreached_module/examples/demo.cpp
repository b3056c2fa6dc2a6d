#include "src/core/example_only.h"

int main() { return core::ExampleOnly(); }
