// Clean fixture, never compiled: range-validates the enum byte before
// casting.

Status ReadShade(Cursor* cursor, Shade* out) {
  unsigned char shade = 0;
  ReadU8(cursor, &shade);
  if (shade > 1) {
    return Status::InvalidArgument("checkpoint: shade out of range");
  }
  *out = static_cast<Shade>(shade);
  return Status::OK();
}
