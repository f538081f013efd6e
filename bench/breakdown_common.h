// Shared driver for the Table 2 / Table 3 phase-breakdown benches
// (and Figure 3, which plots the same data as percentages).
#pragma once

#include <functional>

#include "common.h"

namespace parsemi::bench {

inline int run_breakdown(
    int argc, char** argv, const char* title, const char* json_name,
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
  // the arena is warm, so the reported times (and the JSON's arena_allocs)
  // reflect the zero-heap steady state a reused pipeline_context promises.
  pipeline_context ctx;

  // The breakdown of the best-of-reps run at each thread count. The timed
  // reps run with stats off, so the table holds only the algorithm's
  // phases: stats would add a "stats" lap and, on the CAS path, one shared
  // atomic per record to the scatter. Stats come from one extra untimed
  // call.
  auto measure = [&](int threads, semisort_stats& stats_out) {
    set_num_workers(threads);
    std::vector<record> out(in.size());
    semisort_params params;
    params.context = &ctx;
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
    params.timings = nullptr;
    params.stats = &stats_out;
    semisort_hashed(std::span<const record>(in), std::span<record>(out),
                    record_key{}, params);
    set_num_workers(1);
    return best;
  };

  semisort_stats seq_stats, par_stats;
  phase_timer seq = measure(1, seq_stats);
  phase_timer par = measure(max_threads, par_stats);

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
  table.add_row({"TOTAL", fmt(seq.total(), 3), "100.00", fmt(par.total(), 3),
                 "100.00", fmt(seq.total() / par.total(), 2)});
  std::printf("%s\n", table.to_string().c_str());
  if (args.has("csv")) std::printf("%s\n", table.to_csv().c_str());
  std::printf("%s", shape_note);

  bench_json json(json_name);
  auto add_json = [&](const char* mode, int threads, const phase_timer& pt,
                      const semisort_stats& st) {
    auto& r = json.add_row();
    r.field("distribution", dist_label(spec))
        .field("n", n)
        .field("threads", threads)
        .field("mode", std::string(mode))
        .field("total_s", pt.total());
    for (auto& [phase, t] : pt.phases())
      r.field(("phase_" + phase + "_s").c_str(), t);
    r.stats(st);
  };
  add_json("seq", 1, seq, seq_stats);
  add_json("par", max_threads, par, par_stats);
  json.write();
  return 0;
}

}  // namespace parsemi::bench
