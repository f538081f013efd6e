#include "parsemi_check.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "lint_lexer.h"
#include "lint_rules.h"

namespace parsemi_check {

namespace {

bool mentions_memory_order(const std::vector<token>& toks, size_t lo,
                           size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    if (is_ident(toks[i]) &&
        toks[i].text.rfind("memory_order", 0) == 0) {
      return true;
    }
  }
  return false;
}

const std::set<std::string>& atomic_member_ops() {
  static const std::set<std::string> ops = {
      "load",          "store",
      "exchange",      "fetch_add",
      "fetch_sub",     "fetch_and",
      "fetch_or",      "fetch_xor",
      "compare_exchange_weak", "compare_exchange_strong"};
  return ops;
}

// ---- per-file analysis state ---------------------------------------------

struct file_ctx {
  std::string path;
  const lexed* lx = nullptr;
  std::vector<finding>* out = nullptr;

  // Names declared std::atomic / atomic_ref somewhere in this file, plus
  // the token indices of those declarations (skipped by the operator-form
  // scan).
  std::set<std::string> atomic_names;
  std::set<size_t> atomic_decl_tokens;

  void add(rule r, int line, std::string msg) {
    out->push_back({r, path, line, std::move(msg), false, {}});
  }
};

// Collect `std::atomic<...> name` / `atomic_ref<...> name` declarations.
// Also catches nested forms (std::vector<std::atomic<T>> name) and
// pointer/array declarators.
void collect_atomic_decls(file_ctx& fc) {
  const auto& toks = fc.lx->tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i])) continue;
    if (toks[i].text != "atomic" && toks[i].text != "atomic_ref") continue;
    if (i + 1 >= toks.size() || !is(toks[i + 1], "<")) continue;
    size_t close = match_angles(toks, i + 1);
    if (close >= toks.size()) continue;
    // Walk out of any enclosing template closers (vector<atomic<T>> name)
    // and through declarator punctuation to the declared name.
    size_t j = close + 1;
    while (j < toks.size() &&
           (is(toks[j], ">") || is(toks[j], ">>") || is(toks[j], "*") ||
            is(toks[j], "&"))) {
      ++j;
    }
    if (j < toks.size() && is_ident(toks[j]) &&
        !non_decl_keywords().count(toks[j].text)) {
      fc.atomic_names.insert(toks[j].text);
      fc.atomic_decl_tokens.insert(j);
    }
  }
}

// ---- rule: atomics-order -------------------------------------------------

void check_atomics(file_ctx& fc) {
  const auto& toks = fc.lx->tokens;

  for (size_t i = 0; i < toks.size(); ++i) {
    const token& t = toks[i];
    // Member-call form: x.load(...), p->fetch_add(...).
    if (is_ident(t) && atomic_member_ops().count(t.text) && i > 0 &&
        (is(toks[i - 1], ".") || is(toks[i - 1], "->")) &&
        i + 1 < toks.size() && is(toks[i + 1], "(")) {
      size_t close = match_forward(toks, i + 1, "(", ")");
      if (!mentions_memory_order(toks, i + 1, close)) {
        fc.add(rule::atomics_order, t.line,
               "atomic ." + t.text +
                   "() without an explicit memory_order (implicit seq_cst)");
      }
      continue;
    }
    // Operator form on a declared atomic: implicit seq_cst RMW/store.
    if (is_ident(t) && fc.atomic_names.count(t.text) &&
        !fc.atomic_decl_tokens.count(i) &&
        !(i > 0 && (is(toks[i - 1], ".") || is(toks[i - 1], "->") ||
                    is(toks[i - 1], "::"))) &&
        // `int count = 0;` — prev ident means this is a declaration of a
        // different (non-atomic) variable that shares the name.
        !(i > 0 && is_ident(toks[i - 1]) &&
          !non_decl_keywords().count(toks[i - 1].text))) {
      bool pre_incdec =
          i > 0 && (is(toks[i - 1], "++") || is(toks[i - 1], "--"));
      bool post_op = false;
      std::string op;
      if (i + 1 < toks.size() && toks[i + 1].kind == tok_kind::punct) {
        const std::string& n = toks[i + 1].text;
        if (n == "++" || n == "--" || n == "+=" || n == "-=" || n == "&=" ||
            n == "|=" || n == "^=" || n == "=") {
          post_op = true;
          op = n;
        }
      }
      if (pre_incdec || post_op) {
        fc.add(rule::atomics_order, t.line,
               "operator " + (pre_incdec ? toks[i - 1].text : op) +
                   " on atomic '" + t.text +
                   "' is an implicit seq_cst operation; use an explicit "
                   "memory_order member call");
      }
    }
  }
}

// ---- rule: parallel-capture ----------------------------------------------
//
// Dataflow-strengthened over the v1 lexical scan: reference aliases of
// captured locals are followed (`auto& total = sum; ++total;` is a write
// to `sum`), nested lambda bodies are walked (a write is racy no matter
// how many lambda hops it sits behind), and two exemptions remove the
// historical waiver population: literal empty/singleton ranges (one task,
// no concurrency) and par_do/fork_join branches whose captured locals are
// disjoint (each branch is the sole owner of what it writes).

// Literal value of a single-token numeric argument; false when the arg is
// not one bare number.
bool literal_arg_value(const std::vector<token>& toks, size_t lo, size_t hi,
                       long long& val) {
  if (hi != lo + 1 || toks[lo].kind != tok_kind::number) return false;
  // Strip integer suffixes (u/U/l/L/z/Z); reject anything non-integral.
  std::string digits;
  for (char c : toks[lo].text) {
    if (std::isdigit(static_cast<unsigned char>(c))) digits += c;
    else if (c == 'u' || c == 'U' || c == 'l' || c == 'L' || c == 'z' ||
             c == 'Z' || c == '\'') continue;
    else return false;
  }
  if (digits.empty()) return false;
  val = std::stoll(digits);
  return true;
}

// Splits [lo, hi) into top-level comma-separated argument ranges.
std::vector<std::pair<size_t, size_t>> split_args(
    const std::vector<token>& toks, size_t lo, size_t hi) {
  std::vector<std::pair<size_t, size_t>> args;
  int nest = 0, angle = 0;
  size_t begin = lo;
  for (size_t i = lo; i < hi; ++i) {
    const std::string& x = toks[i].text;
    if (x == "(" || x == "[" || x == "{") ++nest;
    else if (x == ")" || x == "]" || x == "}") --nest;
    else if (x == "<") ++angle;
    else if (x == ">" && angle > 0) --angle;
    else if (x == "," && nest == 0 && angle == 0) {
      args.push_back({begin, i});
      begin = i + 1;
    }
  }
  if (begin < hi) args.push_back({begin, hi});
  return args;
}

// One by-ref lambda inside a parallel call: what it mentions and what it
// would be flagged for writing.
struct branch_scan {
  std::set<std::string> mentions;  // captured (non-local) names referenced
  struct write {
    std::string name;   // the root captured name (after alias resolution)
    int line;
    std::string via;    // alias name when written through one, else ""
    std::string entry;  // parallel_for / par_do / ...
  };
  std::vector<write> writes;
};

void scan_parallel_body(file_ctx& fc, const std::string& entry,
                        size_t body_open, size_t body_close,
                        std::set<std::string> locals, branch_scan& out) {
  const auto& toks = fc.lx->tokens;
  std::map<std::string, std::string> aliases;  // alias -> captured root
  bool stmt_decl = false;  // statement declared a local (for `, hi = …`)
  int nest = 0;            // ()/[] nesting inside the body
  for (size_t k = body_open + 1; k < body_close; ++k) {
    if (toks[k].kind == tok_kind::punct) {
      const std::string& x = toks[k].text;
      if (x == "(" || x == "[") ++nest;
      else if (x == ")" || x == "]") --nest;
      else if (x == ";" || x == "{" || x == "}") stmt_decl = false;
      continue;
    }
    if (!is_ident(toks[k])) continue;
    const std::string& name = toks[k].text;
    // Declaration inside the body? (`type name`, `type& name`, …)
    if (k > 0 &&
        ((is_ident(toks[k - 1]) &&
          !non_decl_keywords().count(toks[k - 1].text)) ||
         ((is(toks[k - 1], "&") || is(toks[k - 1], "*") ||
           is(toks[k - 1], ">")) &&
          k >= 2 && (is_ident(toks[k - 2]) || is(toks[k - 2], ">"))))) {
      // Reference alias of a captured local: `auto& a = captured;` binds
      // `a` to the same object — writes through it are writes to the
      // capture, so record the alias instead of treating it as a fresh
      // local.
      if (is(toks[k - 1], "&") && k + 2 < body_close &&
          is(toks[k + 1], "=") && is_ident(toks[k + 2]) &&
          (k + 3 >= body_close || is(toks[k + 3], ";") ||
           is(toks[k + 3], ",")) &&
          !locals.count(toks[k + 2].text)) {
        std::string root = toks[k + 2].text;
        auto a = aliases.find(root);
        aliases[name] = a == aliases.end() ? root : a->second;
        out.mentions.insert(aliases[name]);
        stmt_decl = true;
        continue;
      }
      locals.insert(name);
      stmt_decl = true;
      continue;
    }
    // Second declarator of the same statement: `size_t lo = a, hi = b;`
    if (stmt_decl && nest == 0 && k > 0 && is(toks[k - 1], ",")) {
      locals.insert(name);
      continue;
    }
    if (locals.count(name)) continue;
    // Member/qualified accesses target another object, not the name.
    if (k > 0 && (is(toks[k - 1], ".") || is(toks[k - 1], "->") ||
                  is(toks[k - 1], "::"))) {
      continue;
    }
    auto al = aliases.find(name);
    const std::string& root = al == aliases.end() ? name : al->second;
    out.mentions.insert(root);
    bool pre = k > 0 && (is(toks[k - 1], "++") || is(toks[k - 1], "--"));
    bool post = false;
    if (k + 1 < body_close && toks[k + 1].kind == tok_kind::punct) {
      const std::string& n = toks[k + 1].text;
      if (n == "=" || n == "+=" || n == "-=" || n == "*=" || n == "/=" ||
          n == "%=" || n == "&=" || n == "|=" || n == "^=" ||
          n == "<<=" || n == ">>=" || n == "++" || n == "--") {
        post = true;
      }
    }
    if (pre || post) {
      out.writes.push_back({root, toks[k].line,
                            al == aliases.end() ? "" : name, entry});
    }
  }
}

void check_parallel_captures(file_ctx& fc) {
  const auto& toks = fc.lx->tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i]) || !spawn_entry_points().count(toks[i].text))
      continue;
    size_t open = i + 1;
    if (is(toks[open], "<")) {  // parallel_for<...>(…)
      size_t ac = match_angles(toks, open);
      if (ac >= toks.size()) continue;
      open = ac + 1;
    }
    if (open >= toks.size() || !is(toks[open], "(")) continue;
    size_t call_close = match_forward(toks, open, "(", ")");
    if (call_close >= toks.size()) continue;
    const std::string& entry = toks[i].text;

    // Literal degenerate range: parallel_for(5, 5, …) /
    // parallel_for(7, 8, …) runs zero or one task — there is no second
    // worker to race with, so captured writes are fine.
    auto args = split_args(toks, open + 1, call_close);
    bool degenerate = false;
    long long lo = 0, hi = 0;
    if ((entry == "parallel_for" || entry == "parallel_for_rec") &&
        args.size() >= 2 &&
        literal_arg_value(toks, args[0].first, args[0].second, lo) &&
        literal_arg_value(toks, args[1].first, args[1].second, hi)) {
      degenerate = hi - lo <= 1;
    } else if (entry == "parallel_for_blocks" && !args.empty() &&
               literal_arg_value(toks, args[0].first, args[0].second, lo)) {
      degenerate = lo <= 1;
    }
    if (degenerate) {
      i = call_close;
      continue;
    }

    // Scan each by-reference lambda among the arguments.
    std::vector<branch_scan> branches;
    for (size_t j = open + 1; j < call_close; ++j) {
      if (!is(toks[j], "[")) continue;
      size_t cap_close = match_forward(toks, j, "[", "]");
      if (cap_close >= call_close) break;
      bool by_ref = false;
      for (size_t k = j + 1; k < cap_close; ++k) {
        if (is(toks[k], "&") &&
            (k + 1 >= cap_close || !is_ident(toks[k + 1]))) {
          by_ref = true;  // capture-default [&], not a named [&x]
        }
      }
      if (!by_ref) {
        j = cap_close;
        continue;
      }
      // Parameters.
      std::set<std::string> locals = fc.atomic_names;  // atomics are exempt
      size_t body_open = cap_close + 1;
      if (body_open < call_close && is(toks[body_open], "(")) {
        size_t pclose = match_forward(toks, body_open, "(", ")");
        for (size_t k = body_open + 1; k < pclose; ++k) {
          if (is_ident(toks[k]) &&
              (k + 1 >= pclose ||
               is(toks[k + 1], ",") || is(toks[k + 1], ")"))) {
            locals.insert(toks[k].text);
          }
        }
        body_open = pclose + 1;
      }
      while (body_open < call_close && !is(toks[body_open], "{")) ++body_open;
      if (body_open >= call_close) continue;
      size_t body_close = match_forward(toks, body_open, "{", "}");
      branch_scan bs;
      scan_parallel_body(fc, entry, body_open, body_close, locals, bs);
      branches.push_back(std::move(bs));
      j = body_close;
    }

    // par_do/fork_join with branches touching disjoint captured sets: each
    // branch is the sole task touching what it writes — sequential
    // ownership, not a race. Writes shared with another branch stay
    // findings.
    bool fork_like = entry == "par_do" || entry == "fork_join";
    for (size_t b = 0; b < branches.size(); ++b) {
      for (const auto& w : branches[b].writes) {
        if (fork_like && branches.size() >= 2) {
          bool shared = false;
          for (size_t o = 0; o < branches.size() && !shared; ++o) {
            if (o != b && branches[o].mentions.count(w.name)) shared = true;
          }
          if (!shared) continue;
        }
        std::string msg = "by-reference write to captured local '" + w.name +
                          "'";
        if (!w.via.empty()) {
          msg += " (through reference alias '" + w.via + "')";
        }
        msg += " inside a " + w.entry +
               " body (no per-index partition; not atomic)";
        fc.add(rule::parallel_capture, w.line, std::move(msg));
      }
    }
    i = call_close;
  }
}

// ---- waivers -------------------------------------------------------------

struct waiver {
  std::vector<rule> rules;
  std::string reason;
  bool has_reason = false;
  int line = 0;
};

std::vector<waiver> parse_waivers(const lexed& lx, const std::string& path,
                                  std::vector<finding>& findings) {
  std::vector<waiver> out;
  for (const auto& [line, text] : lx.comments) {
    size_t at = text.find("parsemi-check:");
    if (at == std::string::npos) continue;
    size_t allow = text.find("allow", at);
    if (allow == std::string::npos) continue;
    size_t open = text.find('(', allow);
    size_t close = text.find(')', allow);
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
      findings.push_back({rule::atomics_order, path, line,
                          "malformed parsemi-check waiver (expected "
                          "allow(<rule>) -- <reason>)",
                          false,
                          {}});
      continue;
    }
    waiver w;
    w.line = line;
    std::string names = text.substr(open + 1, close - open - 1);
    // `allow(<rule>)` with literal angle brackets is documentation of the
    // waiver syntax (e.g. this tool's own header), not a waiver.
    if (names.find('<') != std::string::npos) continue;
    std::stringstream ss(names);
    std::string one;
    bool all_ok = true;
    while (std::getline(ss, one, ',')) {
      size_t b = one.find_first_not_of(" \t");
      size_t e = one.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      rule r;
      if (rule_from_name(one.substr(b, e - b + 1), r)) {
        w.rules.push_back(r);
      } else {
        findings.push_back({rule::atomics_order, path, line,
                            "unknown rule '" + one.substr(b, e - b + 1) +
                                "' in parsemi-check waiver",
                            false,
                            {}});
        all_ok = false;
      }
    }
    size_t dash = text.find("--", close);
    if (dash != std::string::npos) {
      size_t rb = text.find_first_not_of(" \t", dash + 2);
      if (rb != std::string::npos) {
        w.reason = text.substr(rb);
        w.has_reason = true;
      }
    }
    if (!w.has_reason) {
      findings.push_back({rule::atomics_order, path, line,
                          "parsemi-check waiver without a reason "
                          "(append: -- <why this is sound>)",
                          false,
                          {}});
      continue;
    }
    if (all_ok && !w.rules.empty()) out.push_back(w);
  }
  return out;
}

void apply_waivers(const std::vector<waiver>& waivers,
                   std::vector<finding>& findings) {
  for (finding& f : findings) {
    for (const waiver& w : waivers) {
      // A waiver covers its own line and the line below (comment-above
      // idiom).
      if (f.line != w.line && f.line != w.line + 1) continue;
      if (std::find(w.rules.begin(), w.rules.end(), f.r) == w.rules.end())
        continue;
      f.waived = true;
      f.waiver_reason = w.reason;
      break;
    }
  }
}

void sort_findings(std::vector<finding>& fs) {
  std::sort(fs.begin(), fs.end(), [](const finding& x, const finding& y) {
    if (x.file != y.file) return x.file < y.file;
    if (x.line != y.line) return x.line < y.line;
    return static_cast<int>(x.r) < static_cast<int>(y.r);
  });
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// ---- public API ----------------------------------------------------------

const char* rule_name(rule r) {
  switch (r) {
    case rule::atomics_order: return "atomics-order";
    case rule::arena_escape: return "arena-escape";
    case rule::parallel_capture: return "parallel-capture";
    case rule::spill_lifetime: return "spill-lifetime";
    case rule::pool_routing: return "pool-routing";
    case rule::planner_pure: return "planner-pure";
  }
  return "?";
}

bool rule_from_name(std::string_view name, rule& out) {
  for (int i = 0; i < kNumRules; ++i) {
    rule r = static_cast<rule>(i);
    if (name == rule_name(r)) {
      out = r;
      return true;
    }
  }
  return false;
}

project_analysis analyze_project(const std::vector<source_file>& files) {
  project_analysis pa;

  // Phase 1: lex everything, build the symbol index.
  std::vector<lexed> lexes;
  lexes.reserve(files.size());
  for (const source_file& f : files) lexes.push_back(lex(f.text));
  for (size_t i = 0; i < files.size(); ++i) {
    index_file(files[i].path, lexes[i], pa.index);
  }

  // Phase 2a: per-file lexical rules.
  std::vector<finding>& all = pa.result.findings;
  std::map<std::string, std::vector<waiver>> waivers_by_file;
  for (size_t i = 0; i < files.size(); ++i) {
    file_ctx fc;
    fc.path = files[i].path;
    fc.lx = &lexes[i];
    fc.out = &all;
    collect_atomic_decls(fc);
    check_atomics(fc);
    check_parallel_captures(fc);
    waivers_by_file[fc.path] = parse_waivers(lexes[i], fc.path, all);
  }

  // Phase 2b: interprocedural dataflow over the index. Skipped when the
  // index could not be built — mis-scoped entries would produce garbage
  // findings (the CLI maps index errors to exit 4).
  if (pa.index.errors.empty()) {
    std::vector<unit> units;
    units.reserve(files.size());
    for (size_t i = 0; i < files.size(); ++i) {
      units.push_back({files[i].path, &lexes[i]});
    }
    run_dataflow_rules(units, pa.index, all);
  }

  for (finding& f : all) {
    auto it = waivers_by_file.find(f.file);
    if (it == waivers_by_file.end()) continue;
    std::vector<finding> one{std::move(f)};
    apply_waivers(it->second, one);
    f = std::move(one.front());
  }
  sort_findings(all);
  return pa;
}

analysis analyze_source(std::string_view text, std::string_view path) {
  return analyze_project({{std::string(path), std::string(text)}})
      .result;
}

std::vector<std::string> discover_files(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  const char* const subdirs[] = {"src", "tests", "bench", "tools", "examples"};
  for (const char* sub : subdirs) {
    fs::path base = fs::path(root) / sub;
    if (!fs::exists(base)) continue;
    for (auto it = fs::recursive_directory_iterator(base);
         it != fs::recursive_directory_iterator(); ++it) {
      const fs::path& p = it->path();
      std::string name = p.filename().string();
      if (it->is_directory()) {
        if (name == "lint_fixtures" || name.rfind("build", 0) == 0 ||
            (!name.empty() && name[0] == '.')) {
          it.disable_recursion_pending();
        }
        continue;
      }
      std::string ext = p.extension().string();
      if (ext != ".h" && ext != ".cpp" && ext != ".cc") continue;
      out.push_back(fs::relative(p, root).generic_string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string serialize_baseline(const std::vector<finding>& all) {
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const finding& f : all) {
    if (f.waived) counts[{f.file, rule_name(f.r)}]++;
  }
  std::string out =
      "# parsemi-check waiver baseline.\n"
      "# One `<rule> <file> <count>` line per waived (file, rule) pair.\n"
      "# Regenerate with: parsemi_check --write-baseline lint_baseline.txt\n";
  for (const auto& [key, n] : counts) {
    out += key.second + " " + key.first + " " + std::to_string(n) + "\n";
  }
  return out;
}

std::vector<std::string> diff_baseline(std::string_view baseline_text,
                                       const std::vector<finding>& all) {
  std::map<std::pair<std::string, std::string>, int> want;
  std::stringstream ss{std::string(baseline_text)};
  std::string line;
  while (std::getline(ss, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::stringstream ls(line);
    std::string r, f;
    int n = 0;
    if (ls >> r >> f >> n) want[{f, r}] = n;
  }
  std::map<std::pair<std::string, std::string>, int> have;
  for (const finding& f : all) {
    if (f.waived) have[{f.file, rule_name(f.r)}]++;
  }
  std::vector<std::string> drift;
  for (const auto& [key, n] : have) {
    auto it = want.find(key);
    int w = it == want.end() ? 0 : it->second;
    if (n > w) {
      drift.push_back(key.first + ": " + std::to_string(n - w) + " new '" +
                      key.second + "' waiver(s) not in the baseline");
    } else if (n < w) {
      drift.push_back(key.first + ": baseline records " + std::to_string(w) +
                      " '" + key.second + "' waiver(s), found " +
                      std::to_string(n) + " (stale entry; regenerate)");
    }
  }
  for (const auto& [key, w] : want) {
    if (!have.count(key)) {
      drift.push_back(key.first + ": baseline records " + std::to_string(w) +
                      " '" + key.second +
                      "' waiver(s), found 0 (stale entry; regenerate)");
    }
  }
  std::sort(drift.begin(), drift.end());
  return drift;
}

std::string to_json(const analysis& a, size_t files_scanned,
                    const std::vector<index_error>& errors) {
  std::vector<finding> fs = a.findings;
  sort_findings(fs);
  size_t hard = 0, waived = 0;
  for (const finding& f : fs) (f.waived ? waived : hard)++;
  std::string out = "{\n";
  out += "  \"version\": 1,\n";
  out += "  \"files_scanned\": " + std::to_string(files_scanned) + ",\n";
  out += "  \"counts\": {\"hard\": " + std::to_string(hard) +
         ", \"waived\": " + std::to_string(waived) + "},\n";
  out += "  \"index_errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    out += "{\"file\": \"" + json_escape(errors[i].file) +
           "\", \"message\": \"" + json_escape(errors[i].message) + "\"}";
  }
  out += errors.empty() ? "],\n" : "\n  ],\n";
  out += "  \"findings\": [";
  for (size_t i = 0; i < fs.size(); ++i) {
    const finding& f = fs[i];
    out += i ? ",\n    " : "\n    ";
    out += "{\"rule\": \"" + std::string(rule_name(f.r)) +
           "\", \"file\": \"" + json_escape(f.file) +
           "\", \"line\": " + std::to_string(f.line) +
           ", \"waived\": " + (f.waived ? "true" : "false") +
           ", \"message\": \"" + json_escape(f.message) + "\"";
    if (f.waived) {
      out += ", \"waiver_reason\": \"" + json_escape(f.waiver_reason) + "\"";
    }
    out += "}";
  }
  out += fs.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

// ---- CLI -----------------------------------------------------------------

namespace {

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  std::string root;
  std::string baseline_path;
  std::string write_baseline_path;
  std::string write_index_path;
  std::string format = "text";
  std::vector<std::string> explicit_files;
  bool emit_tus = false;
  std::string tu_src, tu_out;

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto need = [&](const char* flag, std::string& dst) {
      if (i + 1 >= args.size()) {
        err << "parsemi_check: " << flag << " needs an argument\n";
        return false;
      }
      dst = args[++i];
      return true;
    };
    if (a == "--root") {
      if (!need("--root", root)) return kExitUsage;
    } else if (a == "--baseline") {
      if (!need("--baseline", baseline_path)) return kExitUsage;
    } else if (a == "--write-baseline") {
      if (!need("--write-baseline", write_baseline_path)) return kExitUsage;
    } else if (a == "--write-index") {
      if (!need("--write-index", write_index_path)) return kExitUsage;
    } else if (a.rfind("--format=", 0) == 0) {
      format = a.substr(9);
      if (format != "text" && format != "json") {
        err << "parsemi_check: unknown format '" << format
            << "' (use text or json)\n";
        return kExitUsage;
      }
    } else if (a == "--emit-header-tus") {
      emit_tus = true;
      if (!need("--emit-header-tus", tu_src) ||
          !need("--emit-header-tus", tu_out)) {
        return kExitUsage;
      }
    } else if (a == "--help" || a == "-h") {
      out << "usage: parsemi_check --root DIR [--baseline FILE] "
             "[--write-baseline FILE]\n"
             "                     [--write-index FILE] [--format=text|json]\n"
             "       parsemi_check --emit-header-tus SRC_DIR OUT_DIR\n"
             "       parsemi_check FILE...\n"
             "exit: 0 clean, 1 findings, 2 usage/IO, 3 baseline drift, "
             "4 index error\n";
      return kExitClean;
    } else if (!a.empty() && a[0] == '-') {
      err << "parsemi_check: unknown flag '" << a << "'\n";
      return kExitUsage;
    } else {
      explicit_files.push_back(a);
    }
  }

  if (emit_tus) {
    auto written = emit_header_tus(tu_src, tu_out);
    for (const std::string& w : written) out << w << "\n";
    return kExitClean;
  }

  std::vector<std::pair<std::string, std::string>> paths;  // rel, full
  if (!root.empty()) {
    for (const std::string& rel : discover_files(root)) {
      paths.push_back({rel, root + "/" + rel});
    }
  }
  for (const std::string& f : explicit_files) paths.push_back({f, f});
  if (paths.empty()) {
    err << "parsemi_check: nothing to lint (use --root or list files)\n";
    return kExitUsage;
  }

  std::vector<source_file> files;
  files.reserve(paths.size());
  for (const auto& [rel, full] : paths) {
    std::string text;
    if (!read_file(full, text)) {
      err << "parsemi_check: cannot read " << full << "\n";
      return kExitUsage;
    }
    files.push_back({rel, std::move(text)});
  }

  project_analysis pa = analyze_project(files);
  const std::vector<finding>& all = pa.result.findings;

  if (!write_index_path.empty()) {
    std::ofstream f(write_index_path, std::ios::binary);
    if (!f) {
      err << "parsemi_check: cannot write " << write_index_path << "\n";
      return kExitUsage;
    }
    f << serialize_index(pa.index);
  }

  if (!pa.index.errors.empty()) {
    for (const index_error& e : pa.index.errors) {
      err << "index error: " << e.file << ": " << e.message << "\n";
    }
    if (format == "json") out << to_json(pa.result, files.size(),
                                         pa.index.errors);
    err << "parsemi_check: symbol index build failed; interprocedural "
           "rules not run\n";
    return kExitIndexError;
  }

  if (!write_baseline_path.empty()) {
    std::ofstream f(write_baseline_path, std::ios::binary);
    if (!f) {
      err << "parsemi_check: cannot write " << write_baseline_path << "\n";
      return kExitUsage;
    }
    f << serialize_baseline(all);
  }

  int hard = 0, waived = 0;
  for (const finding& f : all) {
    if (f.waived) {
      ++waived;
      continue;
    }
    ++hard;
    if (format == "text") {
      err << f.file << ":" << f.line << ": [" << rule_name(f.r) << "] "
          << f.message << "\n";
    }
  }

  std::vector<std::string> drift;
  if (!baseline_path.empty()) {
    std::string btext;
    if (!read_file(baseline_path, btext)) {
      err << "parsemi_check: cannot read baseline " << baseline_path << "\n";
      return kExitUsage;
    }
    drift = diff_baseline(btext, all);
    for (const std::string& d : drift) {
      err << "baseline drift: " << d << "\n";
    }
  }

  if (format == "json") {
    out << to_json(pa.result, files.size(), pa.index.errors);
  }
  err << "parsemi_check: " << files.size() << " file(s), " << hard
      << " finding(s), " << waived << " waived"
      << (baseline_path.empty()
              ? ""
              : drift.empty() ? ", baseline ok" : ", baseline DRIFT")
      << "\n";
  if (hard > 0) return kExitFindings;
  if (!drift.empty()) return kExitBaselineDrift;
  return kExitClean;
}

// ---- header self-sufficiency TUs ----------------------------------------

std::vector<std::string> list_public_headers(const std::string& src_root) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (auto it = fs::recursive_directory_iterator(src_root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory()) continue;
    if (it->path().extension() != ".h") continue;
    out.push_back(fs::relative(it->path(), src_root).generic_string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string tu_name_for(std::string_view header_rel) {
  std::string mangled(header_rel);
  for (char& c : mangled) {
    if (c == '/' || c == '.') c = '_';
  }
  return "selfcheck__" + mangled + ".cpp";
}

std::vector<std::string> emit_header_tus(const std::string& src_root,
                                         const std::string& out_dir) {
  namespace fs = std::filesystem;
  fs::create_directories(out_dir);
  std::vector<std::string> written;
  for (const std::string& h : list_public_headers(src_root)) {
    std::string name = tu_name_for(h);
    std::string body =
        "// Auto-generated by parsemi_check --emit-header-tus.\n"
        "// Compiling this TU proves \"" + h + "\" is self-sufficient.\n"
        "#include \"" + h + "\"\n";
    fs::path dest = fs::path(out_dir) / name;
    // Only rewrite on change so the header_selfcheck target stays
    // incremental.
    std::ifstream existing(dest);
    std::string current((std::istreambuf_iterator<char>(existing)),
                        std::istreambuf_iterator<char>());
    if (current != body) {
      std::ofstream f(dest);
      f << body;
    }
    written.push_back(name);
  }
  return written;
}

}  // namespace parsemi_check
