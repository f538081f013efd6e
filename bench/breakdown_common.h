// Shared driver for the Table 2 / Table 3 phase-breakdown benches
// (and Figure 3, which plots the same data as percentages). Each run
// prints two tables: the default route (exact-count scatter, four laps)
// and the route pinned to the paper's CAS scatter (its five phases, with
// the Phase 5 pack).
#pragma once

#include <functional>
#include <utility>

#include "common.h"

namespace parsemi::bench {

inline int run_breakdown(
    int argc, char** argv, const char* title,
    const std::function<distribution_spec(size_t)>& make_spec,
    const char* shape_note) {
  arg_parser args(argc, argv);
  size_t n = static_cast<size_t>(args.get_int("n", 10000000));
  int reps = static_cast<int>(args.get_int("reps", 2));
  int max_threads =
      static_cast<int>(args.get_int("maxthreads", hardware_threads()));

  distribution_spec spec = make_spec(n);
  print_context(title, n);
  std::printf("distribution: %s\n\n", dist_label(spec).c_str());
  auto in = generate_records(n, spec, 42);

  // One memory plan across every rep and thread count: after the first rep
  // the arena is warm, so the reported times reflect the zero-heap steady
  // state a reused pipeline_context promises.
  pipeline_context ctx;

  // The breakdown of the best-of-reps run at each thread count. The reps
  // run with stats off, so the table holds only the algorithm's phases:
  // stats would add a "stats" lap and, on the CAS path, one shared atomic
  // per record to the scatter.
  auto measure = [&](int threads, semisort_params::scatter_strategy route) {
    set_num_workers(threads);
    std::vector<record> out(in.size());
    semisort_params params;
    params.context = &ctx;
    params.scatter_with = route;
    phase_timer best;
    double best_total = 1e100;
    for (int r = 0; r < reps; ++r) {
      phase_timer pt;
      params.timings = &pt;
      semisort_hashed(std::span<const record>(in), std::span<record>(out),
                      record_key{}, params);
      if (pt.total() < best_total) {
        best_total = pt.total();
        best = pt;
      }
    }
    set_num_workers(1);
    return best;
  };

  const std::pair<semisort_params::scatter_strategy, const char*> kRoutes[] =
      {{semisort_params::scatter_strategy::adaptive,
        "default route (exact-count scatter)"},
       {semisort_params::scatter_strategy::cas,
        "scatter_with = cas (the paper's five phases)"}};
  for (const auto& [route, label] : kRoutes) {
    phase_timer seq = measure(1, route);
    phase_timer par = measure(max_threads, route);

    ascii_table table({"phase", "seq time(s)", "seq %",
                       "T" + std::to_string(max_threads) + " time(s)",
                       "T" + std::to_string(max_threads) + " %", "speedup"});
    for (size_t i = 0; i < seq.phases().size(); ++i) {
      auto& [name, seq_t] = seq.phases()[i];
      double par_t = par.phases()[i].second;
      table.add_row({name, fmt(seq_t, 3), fmt(100 * seq_t / seq.total(), 2),
                     fmt(par_t, 3), fmt(100 * par_t / par.total(), 2),
                     fmt(seq_t / par_t, 2)});
    }
    table.add_row({"TOTAL", fmt(seq.total(), 3), "100.00",
                   fmt(par.total(), 3), "100.00",
                   fmt(seq.total() / par.total(), 2)});
    std::printf("%s:\n%s\n", label, table.to_string().c_str());
    if (args.has("csv")) std::printf("%s\n", table.to_csv().c_str());
  }
  std::printf("%s", shape_note);
  return 0;
}

}  // namespace parsemi::bench
