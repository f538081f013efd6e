// parsemi-check — the project-invariant static analyzer.
//
// A dependency-free two-phase analyzer (own tokenizer + symbol index, no
// libclang) that enforces the concurrency and memory-plan conventions the
// compiler cannot see. Phase 1 builds a project-wide symbol index (every
// function/lambda with its parameter kinds, arena/spill/parallel body
// facts, and callee names — lint_index.h; serialized to the deterministic
// `lint_index` artifact). Phase 2 runs the rules: the per-file lexical
// ones plus interprocedural dataflow over the index. Rules:
//
//   atomics-order      every std::atomic / atomic_ref op names an explicit
//                      memory_order; operator forms (++, +=, =) on
//                      declared atomics are implicit seq_cst and always
//                      flagged.
//   arena-escape       an arena-bound pointer/span allocated while an
//                      arena_scope is active must not flow out — through a
//                      return value, a member store, or a pointer/span
//                      out-parameter — directly or laundered through a
//                      helper's return value (the index records which
//                      functions return fresh arena memory). Value results
//                      computed FROM the allocation (x[i], comparisons,
//                      .size()) are clean: only the pointer itself
//                      escaping is a defect. Supersedes the lexical
//                      arena-lifetime rule and its value-return waivers.
//   spill-lifetime     a span/pointer derived from a spill_file
//                      (as_span()/data()) must not outlive the owning
//                      spill_file: using it after the owner was reset() or
//                      moved-from, or returning/storing one derived from a
//                      function-local owner, is flagged. Ownership moves
//                      between locals (`b = std::move(a)`) re-bind the
//                      derived spans to the new owner. Scoped to src/.
//   pool-routing       a function under src/ (outside src/scheduler/) that
//                      calls default_pool() directly, or that transitively
//                      spawns parallel work (per the index call graph)
//                      while neither accepting a worker_pool& /
//                      pipeline_context& / semisort_params nor having any
//                      indexed src/ caller (i.e. an exposed entry point),
//                      is flagged: concurrent callers must stay able to
//                      route work onto their own pools.
//   parallel-capture   a [&] lambda passed to parallel_for / fork_join /
//                      par_do must not write a captured non-atomic local —
//                      through a bare name, a reference alias, or from a
//                      nested lambda. Writes go through a per-index
//                      partition (x[i] = ...) or an atomic. Literal
//                      empty/singleton ranges and par_do branches whose
//                      captured locals are disjoint are exempt (one
//                      writer, no concurrent reader).
//   planner-pure       a function defined in a planner header
//                      (src/**/planner.h) must neither open an arena_scope
//                      nor spawn parallel work — planning decides, it does
//                      not execute. The probes a planner calls own their
//                      scratch and parallelism in their home headers;
//                      keeping the planner itself pure is what makes plans
//                      cheap to build, reusable, and serializable.
//
// Waiver syntax, on the finding's line or the line above:
//   // parsemi-check: allow(<rule>[, <rule>...]) -- <reason>
// A waiver without a reason is itself a finding. Waived findings are
// counted per (file, rule) and compared against lint_baseline.txt; any
// drift — new waivers or stale entries — fails the run so the budget
// stays deliberate.
//
// CLI exit codes (the contract parsemi_check_test pins):
//   0  clean — no hard findings, baseline matches
//   1  hard findings (with or without drift)
//   2  usage or I/O error (bad flag, unreadable input)
//   3  baseline drift only (waiver population changed, no hard findings)
//   4  index build failure (a file the symbol extractor cannot scope)
//
// This header is the library surface shared by the CLI (parsemi_check)
// and the analyzer's own unit tests (tests/parsemi_check_test.cpp).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "lint_index.h"

namespace parsemi_check {

enum class rule {
  atomics_order,
  arena_escape,
  parallel_capture,
  spill_lifetime,
  pool_routing,
  planner_pure,
};

inline constexpr int kNumRules = 6;

const char* rule_name(rule r);
bool rule_from_name(std::string_view name, rule& out);

struct finding {
  rule r;
  std::string file;
  int line = 0;
  std::string message;
  bool waived = false;
  std::string waiver_reason;
};

struct analysis {
  std::vector<finding> findings;  // waived ones included, flagged
};

struct source_file {
  std::string path;  // as reported in findings (repo-relative)
  std::string text;
};

// Phase 1 + phase 2 over a whole project: builds the symbol index, runs
// every per-file rule and the interprocedural rules, applies waivers, and
// returns findings sorted by (file, line, rule). When the index has
// errors, the interprocedural rules are skipped (the CLI maps this to
// exit 4).
struct project_analysis {
  analysis result;
  symbol_index index;
};
project_analysis analyze_project(const std::vector<source_file>& files);

// Single-file convenience used by fixture tests: a one-file project.
analysis analyze_source(std::string_view text, std::string_view path);

// Recursively discovers .h/.cc/.cpp files under root/{src,tests,bench,
// tools,examples}, skipping build trees, hidden directories, and the
// lint_fixtures corpus (which is deliberately full of violations).
// Returned paths are relative to root, sorted.
std::vector<std::string> discover_files(const std::string& root);

// ---- waiver baseline -----------------------------------------------------

// Deterministic serialization of the waived findings: one
// "<rule> <file> <count>" line per (file, rule), sorted, with a fixed
// header. Byte-identical across runs over an unchanged tree (the replay
// test asserts this).
std::string serialize_baseline(const std::vector<finding>& all);

// Compares recorded waivers against a baseline file's text. Returns
// human-readable drift messages; empty means exact match.
std::vector<std::string> diff_baseline(std::string_view baseline_text,
                                       const std::vector<finding>& all);

// ---- machine-readable findings lane --------------------------------------

// Stable JSON rendering of an analysis: findings sorted by (file, line,
// rule), fixed key order, counts block. scripts/lint_report.py consumes
// this to render CI annotations and diff finding sets between runs.
std::string to_json(const analysis& a, size_t files_scanned,
                    const std::vector<index_error>& errors);

// ---- CLI -----------------------------------------------------------------

// Exit codes, as documented above.
inline constexpr int kExitClean = 0;
inline constexpr int kExitFindings = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitBaselineDrift = 3;
inline constexpr int kExitIndexError = 4;

// The whole CLI, lifted into the library so the exit-code contract is
// unit-testable without spawning a process. argv-style args, without the
// program name.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

// ---- header self-sufficiency TUs ----------------------------------------

// Every .h under src_root, path relative to src_root, sorted.
std::vector<std::string> list_public_headers(const std::string& src_root);

// "core/arena.h" -> "selfcheck__core_arena_h.cpp"
std::string tu_name_for(std::string_view header_rel);

// Writes one self-check TU per public header into out_dir (created if
// absent): each TU includes exactly that header, so compiling it proves
// the header is self-sufficient. Returns the TU file names written.
std::vector<std::string> emit_header_tus(const std::string& src_root,
                                         const std::string& out_dir);

}  // namespace parsemi_check
