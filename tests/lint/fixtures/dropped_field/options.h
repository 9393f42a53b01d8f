// Known-bad fixture, never compiled: the VisitFields of DemoOptions drops
// delta, and that one list drives every archive — veritas-lint must flag
// the member.

struct DemoOptions {
  int gamma = 0;
  int delta = 0;
};

template <typename V, typename S>
FieldsOf<S, DemoOptions> VisitFields(V& v, S& options) {
  v("gamma", options.gamma);
}
