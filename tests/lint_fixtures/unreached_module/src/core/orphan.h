namespace core {
int Orphan();
}  // namespace core
