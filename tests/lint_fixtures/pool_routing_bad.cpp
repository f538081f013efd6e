// Fixture: parallel work no caller can steer onto a chosen pool — two
// direct default_pool() grabs (bare, and qualified as the static member
// it is) and two unrouted spawning roots (one direct, one transitive). The
// rule is scoped to src/ outside src/scheduler/, so tests feed this text
// under a src/ path.
struct worker_pool {
  static worker_pool& default_pool();
  int num_workers() const;
};
worker_pool& default_pool();
template <class F>
void parallel_for(unsigned long lo, unsigned long hi, F&& f);

void grabs_default_pool(long* out, unsigned long n) {
  worker_pool& pool = default_pool();  // flagged at this call site
  parallel_for(0, n, [&out](unsigned long i) { out[i] = 0; });
}

int grabs_qualified_pool() {
  return worker_pool::default_pool().num_workers();  // flagged here too
}

void unrouted_root(long* out, unsigned long n) {  // flagged at the function
  parallel_for(0, n, [&out](unsigned long i) { out[i] = 1; });
}

namespace detail {
void spawn_leaf(long* out, unsigned long n) {  // called below: not a root
  parallel_for(0, n, [&out](unsigned long i) { out[i] = 2; });
}
}  // namespace detail

void transitive_root(long* out, unsigned long n) {  // flagged: spawns via leaf
  detail::spawn_leaf(out, n);
}
