// Clean fixture, never compiled: DemoOptions visits every member, and its
// enum has a spelling table.

enum class Shade : unsigned char {
  kLight = 0,
  kDark = 1,
};

constexpr Spellings<2> EnumSpellings(Shade) { return {"light", "dark"}; }

const char* ShadeName(Shade shade);

struct DemoOptions {
  int gamma = 0;
  Shade shade = Shade::kLight;
};

template <typename V, typename S>
FieldsOf<S, DemoOptions> VisitFields(V& v, S& options) {
  v("gamma", options.gamma);
  v("shade", options.shade);
}
