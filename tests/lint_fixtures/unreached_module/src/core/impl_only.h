namespace core {
inline int ImplOnly() { return 1; }
}  // namespace core
