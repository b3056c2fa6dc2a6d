#include "src/core/used.h"
#include "src/snic.h"

int main() { return core::Used(); }
