// Tests for the parsemi-check static analyzer: each rule against its
// good/bad fixture pair (including the phase-2 interprocedural rules), the
// waiver machinery, baseline round-trip, symbol-index determinism, the CLI
// exit-code contract, the JSON findings format, and the header-TU name
// mangling. Fixtures live in tests/lint_fixtures/ (a directory
// discover_files() deliberately skips).
#include "parsemi_check.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using parsemi_check::analysis;
using parsemi_check::analyze_project;
using parsemi_check::analyze_source;
using parsemi_check::finding;
using parsemi_check::project_analysis;
using parsemi_check::rule;
using parsemi_check::run_cli;
using parsemi_check::source_file;

std::string fixture_path(const std::string& name) {
  return std::string(PARSEMI_LINT_FIXTURE_DIR) + "/" + name;
}

std::string fixture(const std::string& name) {
  std::string path = fixture_path(name);
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Unwaived findings of one rule.
int hard_count(const analysis& a, rule r) {
  int n = 0;
  for (const finding& f : a.findings)
    if (f.r == r && !f.waived) ++n;
  return n;
}

int hard_total(const analysis& a) {
  int n = 0;
  for (const finding& f : a.findings)
    if (!f.waived) ++n;
  return n;
}

bool any_message_contains(const analysis& a, const std::string& needle) {
  for (const finding& f : a.findings) {
    if (f.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::string write_temp(const std::string& name, const std::string& text) {
  std::string path = testing::TempDir() + name;
  std::ofstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  f << text;
  return path;
}

TEST(RuleNames, RoundTrip) {
  for (int i = 0; i < parsemi_check::kNumRules; ++i) {
    rule r = static_cast<rule>(i);
    rule back;
    ASSERT_TRUE(parsemi_check::rule_from_name(parsemi_check::rule_name(r), back));
    EXPECT_EQ(back, r);
  }
  rule dummy;
  EXPECT_FALSE(parsemi_check::rule_from_name("no-such-rule", dummy));
  EXPECT_FALSE(parsemi_check::rule_from_name("arena-lifetime", dummy))
      << "retired v1 rule name must not resolve";
}

TEST(AtomicsOrder, BadFixtureFlagsEveryImplicitSeqCst) {
  analysis a = analyze_source(fixture("atomics_order_bad.cpp"),
                              "atomics_order_bad.cpp");
  // 3 member calls + 4 operator forms.
  EXPECT_EQ(hard_count(a, rule::atomics_order), 7);
}

TEST(AtomicsOrder, GoodFixtureIsClean) {
  analysis a = analyze_source(fixture("atomics_order_good.cpp"),
                              "atomics_order_good.cpp");
  EXPECT_EQ(hard_total(a), 0);
}

TEST(ArenaEscape, EveryEscapeShapeIsFlagged) {
  analysis a = analyze_source(fixture("arena_escape_bad.cpp"),
                              "arena_escape_bad.cpp");
  // Direct return, tainted-local return, return-after-rewind, member
  // store, laundered through a helper.
  EXPECT_EQ(hard_count(a, rule::arena_escape), 5);
  EXPECT_TRUE(any_message_contains(a, "after its arena_scope rewound"));
  EXPECT_TRUE(any_message_contains(a, "stored into member 'stash_'"));
}

TEST(ArenaEscape, HelperLaunderingIsFollowedThroughTheIndex) {
  // The laundering case only works because the summaries mark
  // make_buffer() as returning fresh arena memory; the binding
  // `int* tmp = make_buffer(a, n);` under an active scope taints tmp.
  analysis a = analyze_source(fixture("arena_escape_bad.cpp"),
                              "arena_escape_bad.cpp");
  bool laundered = false;
  for (const finding& f : a.findings) {
    if (f.r == rule::arena_escape && f.line == 51) laundered = true;
  }
  EXPECT_TRUE(laundered) << "make_buffer() result escape not tracked";
}

TEST(ArenaEscape, ValueUsesUnscopedAllocsAndRebindsAreClean) {
  // The good fixture holds exactly the shapes that used to need "value,
  // not a pointer" waivers — the dataflow must prove them instead.
  analysis a = analyze_source(fixture("arena_escape_good.cpp"),
                              "arena_escape_good.cpp");
  EXPECT_EQ(hard_total(a), 0);
}

TEST(SpillLifetime, EveryLifetimeViolationIsFlagged) {
  // The rule is scoped to src/: feed the fixture under a src/ path.
  analysis a = analyze_source(fixture("spill_lifetime_bad.cpp"),
                              "src/spill_lifetime_bad.cpp");
  // Return escape, view-of-view escape, use-after-reset, use-after-block
  // -exit, use-after-move, use-after-reset of a span rebound in one
  // branch of an if/else only.
  EXPECT_EQ(hard_count(a, rule::spill_lifetime), 6);
  EXPECT_TRUE(any_message_contains(a, "after the owner was reset()"));
  EXPECT_TRUE(any_message_contains(a, "moved away"));
  EXPECT_TRUE(any_message_contains(a, "destroyed at the end of its block"));
}

TEST(SpillLifetime, OwnedUsesMoveTransfersAndParamOwnersAreClean) {
  analysis a = analyze_source(fixture("spill_lifetime_good.cpp"),
                              "src/spill_lifetime_good.cpp");
  EXPECT_EQ(hard_total(a), 0);
}

TEST(SpillLifetime, RuleIsScopedToSrc) {
  // Tests/benches may map and drop spill views for harness purposes.
  analysis a = analyze_source(fixture("spill_lifetime_bad.cpp"),
                              "tests/spill_harness.cpp");
  EXPECT_EQ(hard_count(a, rule::spill_lifetime), 0);
}

TEST(PoolRouting, DefaultPoolGrabAndUnroutedRootsAreFlagged) {
  analysis a = analyze_source(fixture("pool_routing_bad.cpp"),
                              "src/pool_routing_bad.cpp");
  // Two default_pool() call sites (bare and worker_pool::-qualified) +
  // two unrouted spawning roots (one spawns directly, one transitively
  // through detail::spawn_leaf).
  EXPECT_EQ(hard_count(a, rule::pool_routing), 4);
  EXPECT_TRUE(any_message_contains(a, "default_pool() grabbed directly"));
  EXPECT_TRUE(any_message_contains(a, "'transitive_root'"));
}

TEST(PoolRouting, RoutedParamsAndIndexedCallersAreClean) {
  analysis a = analyze_source(fixture("pool_routing_good.cpp"),
                              "src/pool_routing_good.cpp");
  EXPECT_EQ(hard_total(a), 0);
}

TEST(PoolRouting, SchedulerSourcesAreExempt) {
  // The scheduler implements default_pool(); its own sources may spawn
  // and grab pools freely.
  analysis a = analyze_source(fixture("pool_routing_bad.cpp"),
                              "src/scheduler/pool_impl.cpp");
  EXPECT_EQ(hard_count(a, rule::pool_routing), 0);
}

TEST(PlannerPure, ArenaScopesAndSpawnsInsideThePlannerAreFlagged) {
  // The rule is scoped to src/**/planner.h: feed the fixture under the
  // planner's path.
  analysis a = analyze_source(fixture("planner_pure_bad.cpp"),
                              "src/core/planner.h");
  // One arena_scope opener, one direct spawner, and one function doing
  // both (two findings on it).
  EXPECT_EQ(hard_count(a, rule::planner_pure), 4);
  EXPECT_TRUE(any_message_contains(a, "opens an arena_scope inside the"));
  EXPECT_TRUE(any_message_contains(a, "spawns parallel work inside the"));
  EXPECT_TRUE(any_message_contains(a, "'plan_doing_everything'"));
}

TEST(PlannerPure, DelegatingProbesToTheirHomeHeadersIsClean) {
  analysis a = analyze_source(fixture("planner_pure_good.cpp"),
                              "src/core/planner.h");
  EXPECT_EQ(hard_total(a), 0);
}

TEST(PlannerPure, RuleIsScopedToPlannerHeaders) {
  // The same impure text anywhere else is this rule's business nowhere
  // else — probes legitimately own scratch and parallelism in their home
  // headers.
  analysis a = analyze_source(fixture("planner_pure_bad.cpp"),
                              "src/core/key_domain.h");
  EXPECT_EQ(hard_count(a, rule::planner_pure), 0);
}

TEST(ParallelCapture, RacyCapturedWritesAreFlagged) {
  analysis a = analyze_source(fixture("parallel_capture_bad.cpp"),
                              "parallel_capture_bad.cpp");
  // sum +=, ++hits, the shared par_do name, the alias write, the nested
  // lambda write. (The par_do pair writes the same name on one line with
  // an identical message, so it collapses to one finding.)
  EXPECT_EQ(hard_count(a, rule::parallel_capture), 5);
  EXPECT_TRUE(any_message_contains(a, "through reference alias 't'"));
}

TEST(ParallelCapture, SanctionedIdiomsAndDegenerateRangesAreClean) {
  analysis a = analyze_source(fixture("parallel_capture_good.cpp"),
                              "parallel_capture_good.cpp");
  EXPECT_EQ(hard_total(a), 0);
  // The shared stats counter is waived, not silently ignored; the
  // degenerate-range and disjoint-par_do shapes need no waiver at all.
  int waived = 0;
  for (const finding& f : a.findings)
    if (f.waived) ++waived;
  EXPECT_EQ(waived, 1);
}

TEST(Waivers, MissingReasonAndUnknownRuleAreFindings) {
  analysis a =
      analyze_source(fixture("waiver_bad.cpp"), "waiver_bad.cpp");
  bool saw_missing_reason = false, saw_unknown_rule = false;
  for (const finding& f : a.findings) {
    if (f.message.find("without a reason") != std::string::npos)
      saw_missing_reason = true;
    if (f.message.find("unknown rule") != std::string::npos)
      saw_unknown_rule = true;
  }
  EXPECT_TRUE(saw_missing_reason);
  EXPECT_TRUE(saw_unknown_rule);
  // The reason-less waiver does not suppress the a.store(1) finding.
  EXPECT_GE(hard_count(a, rule::atomics_order), 1);
}

TEST(Waivers, ReasonIsRecordedOnTheWaivedFinding) {
  std::string src =
      "#include <atomic>\n"
      "void f(std::atomic<int>& a) {\n"
      "  // parsemi-check: allow(atomics-order) -- prototype scaffolding\n"
      "  a.store(1);\n"
      "}\n";
  analysis a = analyze_source(src, "f.cpp");
  ASSERT_EQ(a.findings.size(), 1u);
  EXPECT_TRUE(a.findings[0].waived);
  EXPECT_EQ(a.findings[0].waiver_reason, "prototype scaffolding");
  EXPECT_EQ(hard_total(a), 0);
}

TEST(Baseline, SerializationIsDeterministicAndRoundTrips) {
  analysis a = analyze_source(fixture("parallel_capture_good.cpp"),
                              "parallel_capture_good.cpp");
  std::string b1 = parsemi_check::serialize_baseline(a.findings);
  std::string b2 = parsemi_check::serialize_baseline(a.findings);
  EXPECT_EQ(b1, b2);  // byte-identical replay
  EXPECT_TRUE(parsemi_check::diff_baseline(b1, a.findings).empty());
}

TEST(Baseline, DriftIsReportedBothWays) {
  analysis a = analyze_source(fixture("parallel_capture_good.cpp"),
                              "parallel_capture_good.cpp");
  // New waivers vs an empty baseline.
  EXPECT_FALSE(parsemi_check::diff_baseline("", a.findings).empty());
  // Stale baseline entries vs a clean tree.
  std::vector<finding> none;
  EXPECT_FALSE(parsemi_check::diff_baseline(
                   "atomics-order gone_file.cpp 3\n", none)
                   .empty());
}

TEST(Baseline, CheckedInBaselineParsesAndRecordsNoWaivers) {
  // parsemi-check v2 retired every historical waiver: the value-return
  // shapes are proven by arena-escape's carries discipline and the
  // degenerate-range / disjoint-branch captures are exempt by analysis.
  // The checked-in baseline must parse and stay empty — a data line
  // reappearing here means a new waiver slipped in.
  std::ifstream f(std::string(PARSEMI_LINT_BASELINE));
  ASSERT_TRUE(f.is_open()) << "missing " << PARSEMI_LINT_BASELINE;
  std::string line;
  int entries = 0;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string rname, file;
    int count = 0;
    ASSERT_TRUE(static_cast<bool>(ls >> rname >> file >> count)) << line;
    rule r;
    EXPECT_TRUE(parsemi_check::rule_from_name(rname, r)) << rname;
    EXPECT_GT(count, 0) << line;
    ++entries;
  }
  EXPECT_EQ(entries, 0);
}

TEST(SeededViolations, AnalyzerFlagsEachBadFixture) {
  // The acceptance contract: seeding any violation class into a clean
  // tree makes the tool fail. Each bad fixture must carry at least one
  // unwaived finding of its rule (src/-scoped rules get a src/ path).
  struct seeded {
    const char* file;
    const char* as_path;
    rule r;
  } cases[] = {
      {"atomics_order_bad.cpp", "atomics_order_bad.cpp",
       rule::atomics_order},
      {"arena_escape_bad.cpp", "arena_escape_bad.cpp", rule::arena_escape},
      {"parallel_capture_bad.cpp", "parallel_capture_bad.cpp",
       rule::parallel_capture},
      {"spill_lifetime_bad.cpp", "src/spill_lifetime_bad.cpp",
       rule::spill_lifetime},
      {"pool_routing_bad.cpp", "src/pool_routing_bad.cpp",
       rule::pool_routing},
  };
  for (const auto& c : cases) {
    analysis a = analyze_source(fixture(c.file), c.as_path);
    EXPECT_GT(hard_count(a, c.r), 0) << c.file;
  }
}

// ---- symbol index --------------------------------------------------------

TEST(SymbolIndex, ExtractsParamKindsAndBodyFacts) {
  project_analysis pa = analyze_project(
      {{"src/pool_routing_good.cpp", fixture("pool_routing_good.cpp")}});
  ASSERT_TRUE(pa.index.errors.empty());
  const parsemi_check::func_entry* routed = nullptr;
  for (const auto& fe : pa.index.functions) {
    if (fe.name.find("routed_by_pool") != std::string::npos &&
        !fe.is_lambda) {
      routed = &fe;
    }
  }
  ASSERT_NE(routed, nullptr);
  EXPECT_TRUE(routed->takes_pool());
  EXPECT_TRUE(routed->is_routed());
  EXPECT_TRUE(routed->spawns_parallel);
}

TEST(SymbolIndex, SerializationIsByteIdenticalAcrossRuns) {
  std::vector<source_file> files = {
      {"src/a.cpp", fixture("pool_routing_good.cpp")},
      {"src/b.cpp", fixture("spill_lifetime_good.cpp")},
  };
  project_analysis p1 = analyze_project(files);
  project_analysis p2 = analyze_project(files);
  std::string s1 = parsemi_check::serialize_index(p1.index);
  std::string s2 = parsemi_check::serialize_index(p2.index);
  EXPECT_EQ(s1, s2);  // same tree -> byte-identical lint_index artifact
  EXPECT_NE(s1.find("# parsemi-check symbol index"), std::string::npos);
}

TEST(SymbolIndex, SerializationRoundTripsThroughParse) {
  project_analysis pa = analyze_project(
      {{"src/x.cpp", fixture("arena_escape_bad.cpp")}});
  ASSERT_TRUE(pa.index.errors.empty());
  std::string text = parsemi_check::serialize_index(pa.index);
  parsemi_check::symbol_index back;
  ASSERT_TRUE(parsemi_check::parse_index(text, back));
  ASSERT_EQ(back.functions.size(), pa.index.functions.size());
  for (size_t i = 0; i < back.functions.size(); ++i) {
    EXPECT_EQ(back.functions[i].name, pa.index.functions[i].name);
    EXPECT_EQ(back.functions[i].calls, pa.index.functions[i].calls);
    EXPECT_EQ(back.functions[i].returns_ptr_like,
              pa.index.functions[i].returns_ptr_like);
  }
  parsemi_check::symbol_index junk;
  EXPECT_FALSE(parsemi_check::parse_index("not an index\n", junk));
}

TEST(SymbolIndex, UnbalancedBracesAreAnIndexErrorNotGarbageEntries) {
  project_analysis pa = analyze_project(
      {{"src/trunc.cpp", "void f() { int x = 1;\n"}});
  EXPECT_FALSE(pa.index.errors.empty());
}

// ---- CLI exit-code contract ----------------------------------------------

TEST(ExitCodes, CleanFileExitsZero) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({fixture_path("arena_escape_good.cpp")}, out, err),
            parsemi_check::kExitClean);
}

TEST(ExitCodes, FindingsExitOne) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({fixture_path("arena_escape_bad.cpp")}, out, err),
            parsemi_check::kExitFindings);
  EXPECT_NE(err.str().find("arena-escape"), std::string::npos);
}

TEST(ExitCodes, UsageErrorsExitTwo) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"--no-such-flag"}, out, err),
            parsemi_check::kExitUsage);
  EXPECT_EQ(run_cli({}, out, err), parsemi_check::kExitUsage);
  EXPECT_EQ(run_cli({"/definitely/not/a/file.cpp"}, out, err),
            parsemi_check::kExitUsage);
  EXPECT_EQ(run_cli({"--format=yaml"}, out, err),
            parsemi_check::kExitUsage);
}

TEST(ExitCodes, BaselineDriftAloneExitsThree) {
  // One waived finding vs an empty baseline: no hard findings, but the
  // waiver population drifted.
  std::string empty = write_temp("empty_baseline.txt", "");
  std::ostringstream out, err;
  int code = run_cli({fixture_path("parallel_capture_good.cpp"),
                      "--baseline", empty},
                     out, err);
  EXPECT_EQ(code, parsemi_check::kExitBaselineDrift);
  EXPECT_NE(err.str().find("baseline drift"), std::string::npos);
}

TEST(ExitCodes, IndexBuildFailureExitsFour) {
  std::string trunc =
      write_temp("truncated.cpp", "void f() { int x = 1;\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({trunc}, out, err), parsemi_check::kExitIndexError);
  EXPECT_NE(err.str().find("index error"), std::string::npos);
}

TEST(ExitCodes, HelpExitsZero) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"--help"}, out, err), parsemi_check::kExitClean);
  EXPECT_NE(out.str().find("exit:"), std::string::npos);
}

// ---- JSON findings lane --------------------------------------------------

TEST(JsonFormat, StableShapeAndSortedFindings) {
  analysis a = analyze_source(fixture("arena_escape_bad.cpp"),
                              "arena_escape_bad.cpp");
  std::string j = parsemi_check::to_json(a, 1, {});
  EXPECT_NE(j.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(j.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(j.find("\"rule\": \"arena-escape\""), std::string::npos);
  EXPECT_NE(j.find("\"index_errors\": []"), std::string::npos);
  // Findings are (file, line, rule)-sorted: line numbers appear ascending.
  size_t prev = 0;
  int last_line = 0;
  for (const finding& f : a.findings) {
    std::string key = "\"line\": " + std::to_string(f.line);
    size_t at = j.find(key, prev);
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_GE(f.line, last_line);
    prev = at;
    last_line = f.line;
  }
  // Emission is deterministic.
  EXPECT_EQ(j, parsemi_check::to_json(a, 1, {}));
}

TEST(JsonFormat, CliEmitsJsonOnStdout) {
  std::ostringstream out, err;
  int code = run_cli({fixture_path("arena_escape_bad.cpp"),
                      "--format=json"},
                     out, err);
  EXPECT_EQ(code, parsemi_check::kExitFindings);
  EXPECT_NE(out.str().find("\"version\": 1"), std::string::npos);
  EXPECT_NE(out.str().find("\"counts\": {\"hard\": 5, \"waived\": 0}"),
            std::string::npos);
  // Human chatter stays on stderr; stdout is pure JSON.
  EXPECT_EQ(out.str()[0], '{');
}

TEST(JsonFormat, WaiverReasonIsCarried) {
  analysis a = analyze_source(fixture("parallel_capture_good.cpp"),
                              "parallel_capture_good.cpp");
  std::string j = parsemi_check::to_json(a, 1, {});
  EXPECT_NE(j.find("\"waived\": true"), std::string::npos);
  EXPECT_NE(j.find("\"waiver_reason\": \"stats counter; torn reads ok\""),
            std::string::npos);
}

// ---- header TUs and discovery --------------------------------------------

TEST(HeaderTus, NameManglingIsStable) {
  EXPECT_EQ(parsemi_check::tu_name_for("core/arena.h"),
            "selfcheck__core_arena_h.cpp");
  EXPECT_EQ(parsemi_check::tu_name_for("scheduler/work_stealing_deque.h"),
            "selfcheck__scheduler_work_stealing_deque_h.cpp");
}

TEST(Discovery, FixtureCorpusIsExcludedFromTreeScans) {
  // Run discovery from the repo root if the layout is available; the
  // fixtures (full of violations by design) must never appear.
  std::string root = std::string(PARSEMI_LINT_FIXTURE_DIR) + "/../..";
  for (const std::string& f : parsemi_check::discover_files(root)) {
    EXPECT_EQ(f.find("lint_fixtures"), std::string::npos) << f;
  }
}

TEST(Discovery, ExamplesAreScanned) {
  // Satellite of the v2 issue: examples/ is part of the linted surface.
  std::string root = std::string(PARSEMI_LINT_FIXTURE_DIR) + "/../..";
  bool saw_example = false;
  for (const std::string& f : parsemi_check::discover_files(root)) {
    if (f.rfind("examples/", 0) == 0) saw_example = true;
  }
  EXPECT_TRUE(saw_example);
}

}  // namespace
