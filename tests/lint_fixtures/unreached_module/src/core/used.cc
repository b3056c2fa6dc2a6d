// A reached header reaches its .cc, and the .cc's includes are followed.
#include "src/core/used.h"

#include "src/core/impl_only.h"

namespace core {
int Used() { return ImplOnly(); }
}  // namespace core
