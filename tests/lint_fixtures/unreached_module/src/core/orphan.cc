#include "src/core/orphan.h"

namespace core {
int Orphan() { return 3; }
}  // namespace core
