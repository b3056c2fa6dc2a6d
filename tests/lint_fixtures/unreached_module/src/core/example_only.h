namespace core {
inline int ExampleOnly() { return 2; }
}  // namespace core
