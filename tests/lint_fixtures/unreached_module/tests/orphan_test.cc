// Tests are not roots: this include does not rescue orphan.h.
#include "src/core/orphan.h"

int OrphanTest() { return core::Orphan(); }
