// Clean fixture, never compiled: full envelope coverage, a rejecting enum
// parser, and a GetEnum pairing with a missing-key default.

Status ParseShade(const std::string& name, Shade* out) {
  if (name == "light") {
    *out = Shade::kLight;
  } else if (name == "dark") {
    *out = Shade::kDark;
  } else {
    return Status::InvalidArgument("unknown shade '" + name + "'");
  }
  return Status::OK();
}

template <typename Parser>
Status GetEnum(const JsonValue& obj, const char* key, Parser parser,
               typename ParserTarget<Parser>::type* out) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) return Status::OK();  // missing key keeps the default
  auto text = value->AsString();
  if (!text.ok()) return text.status();
  return parser(text.value(), out);
}

void EncodeDemoMessage(JsonWriter* w, const DemoMessage& message) {
  w->Key("alpha").UInt(message.alpha);
  w->Key("shade").String(ShadeName(message.shade));
}

Status DecodeDemoMessage(const JsonValue& value, DemoMessage* out) {
  GetU64(value, "alpha", &out->alpha);
  return GetEnum(value, "shade", ParseShade, &out->shade);
}
