namespace core {
int Used();
}  // namespace core
