// Known-bad fixture, never compiled: both structs have a num_threads, and
// GuidanceConfig's visitor drops its own. Matching member names against all
// serializer text is satisfied by GibbsOptions::num_threads; veritas-lint
// must check each struct against its own VisitFields and flag the drop.

struct GibbsOptions {
  int burn_in = 15;
  int num_threads = 0;
};

template <typename V, typename S>
FieldsOf<S, GibbsOptions> VisitFields(V& v, S& o) {
  v("burn_in", o.burn_in);
  v("num_threads", o.num_threads);
}

struct GuidanceConfig {
  int candidate_pool = 64;
  int num_threads = 0;
};

template <typename V, typename S>
FieldsOf<S, GuidanceConfig> VisitFields(V& v, S& g) {
  v("candidate_pool", g.candidate_pool);
}
