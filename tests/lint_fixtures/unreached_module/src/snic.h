// Umbrella header: its includes do not count as reaching anything.
#include "src/core/orphan.h"
#include "src/core/used.h"
