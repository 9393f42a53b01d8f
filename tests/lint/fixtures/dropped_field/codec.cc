// Known-bad fixture, never compiled: codes the DemoMessage envelope by hand,
// both members in both directions.

void EncodeDemoMessage(JsonWriter* w, const DemoMessage& message) {
  w->Key("alpha").UInt(message.alpha);
  w->Key("beta").UInt(message.beta);
}

Status DecodeDemoMessage(const JsonValue& value, DemoMessage* out) {
  GetU64(value, "alpha", &out->alpha);
  GetU64(value, "beta", &out->beta);
  return Status::OK();
}
