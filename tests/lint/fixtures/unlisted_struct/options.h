// Known-bad fixture, never compiled: no configuration names this struct,
// and its visitor drops pir_patience. Having a VisitFields is what makes a
// struct tracked, so veritas-lint must flag the drop.

struct TerminationOptions {
  bool enable_pir = false;
  int pir_folds = 5;
  int pir_interval = 10, pir_patience = 2;
};

template <typename V, typename S>
FieldsOf<S, TerminationOptions> VisitFields(V& v, S& t) {
  v("enable_pir", t.enable_pir);
  v("pir_folds", t.pir_folds);
  v("pir_interval", t.pir_interval);
}
