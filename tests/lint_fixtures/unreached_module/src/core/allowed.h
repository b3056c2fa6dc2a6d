// Unreached, but allowlisted with a reason.
namespace core {
inline int Allowed() { return 4; }
}  // namespace core
