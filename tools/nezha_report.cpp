// Verdict engine: the CI gate that turns bench JSON + telemetry streams
// into a one-page run verdict.
//
//   nezha_report [--threshold 0.10] [--telemetry FILE]... [--markdown FILE]
//                [--trajectory FILE] [BASELINE FRESH ...]
//
// Three inputs, one exit code:
//
//  * (baseline, fresh) bench pairs — compared leaf by leaf: the JSON trees
//    are flattened to dotted numeric paths and each leaf is classified by
//    name into higher-is-better (rates, speedups, delivery fractions),
//    lower-is-better (allocations, latency, loss), or informational
//    (counts, config echoes, wall-clock profile fields — printed when they
//    move, never gated). Leaves present on only one side are schema drift,
//    not regressions.
//  * --telemetry streams (`nezha-telemetry-v1` JSON) — the `slo` section
//    is evaluated per stream: any recorded violation fails the run, and
//    the per-rule burn rates / worst offenders feed the dashboard's SLO
//    table. The `sim.profile` section (sharded runs) feeds the shard phase
//    breakdown. An empty stream is "no samples" (warned, never fatal).
//  * --markdown renders the one-page dashboard; --trajectory appends a
//    one-line JSON run summary to a history file (BENCH_trajectory.jsonl).
//
// Exit: 0 clean; 1 on any regression past the threshold or any SLO
// violation; 2 on usage / unreadable or malformed input (reported with
// file and line).
//
// CI runs this after the bench binaries regenerate BENCH_*.json, against
// the checked-in copies (see README "Recording a new baseline"):
// wall-clock rates on shared runners are noisy, which is exactly why the
// default threshold is a coarse 10% — it catches a path going off a
// cliff, while the benches' machine-independent [SHAPE] gates catch
// everything subtle.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// --- minimal JSON reader: numeric leaves only -------------------------------
//
// The bench and telemetry writers emit a small, regular subset of JSON
// (objects, arrays, numbers, strings). This reader walks the full grammar
// but records only numeric leaves, keyed by their dotted path.

struct Parser {
  const std::string& s;
  std::size_t i = 0;
  bool failed = false;

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  void fail() { failed = true; }
};

using FlatMetrics = std::map<std::string, double>;

void parse_value(Parser& p, const std::string& path, FlatMetrics& out);

void parse_object(Parser& p, const std::string& path, FlatMetrics& out) {
  if (p.eat('}')) return;
  while (!p.failed) {
    p.skip_ws();
    if (p.i >= p.s.size() || p.s[p.i] != '"') return p.fail();
    ++p.i;
    std::string key;
    while (p.i < p.s.size() && p.s[p.i] != '"') key += p.s[p.i++];
    if (p.i >= p.s.size()) return p.fail();
    ++p.i;
    if (!p.eat(':')) return p.fail();
    parse_value(p, path.empty() ? key : path + "." + key, out);
    if (p.eat(',')) continue;
    if (p.eat('}')) return;
    return p.fail();
  }
}

void parse_array(Parser& p, const std::string& path, FlatMetrics& out) {
  if (p.eat(']')) return;
  for (int idx = 0; !p.failed; ++idx) {
    parse_value(p, path + "[" + std::to_string(idx) + "]", out);
    if (p.eat(',')) continue;
    if (p.eat(']')) return;
    return p.fail();
  }
}

void parse_value(Parser& p, const std::string& path, FlatMetrics& out) {
  p.skip_ws();
  if (p.i >= p.s.size()) return p.fail();
  const char c = p.s[p.i];
  if (c == '{') {
    ++p.i;
    return parse_object(p, path, out);
  }
  if (c == '[') {
    ++p.i;
    return parse_array(p, path, out);
  }
  if (c == '"') {  // string leaf (schema names): skipped
    ++p.i;
    while (p.i < p.s.size() && p.s[p.i] != '"') {
      if (p.s[p.i] == '\\') ++p.i;
      ++p.i;
    }
    if (p.i >= p.s.size()) return p.fail();
    ++p.i;
    return;
  }
  if (std::isalpha(static_cast<unsigned char>(c))) {  // true/false/null
    while (p.i < p.s.size() &&
           std::isalpha(static_cast<unsigned char>(p.s[p.i])))
      ++p.i;
    return;
  }
  // number
  const std::size_t start = p.i;
  while (p.i < p.s.size() &&
         (std::isdigit(static_cast<unsigned char>(p.s[p.i])) ||
          std::strchr("+-.eE", p.s[p.i]) != nullptr))
    ++p.i;
  if (p.i == start) return p.fail();
  out[path] = std::strtod(p.s.c_str() + start, nullptr);
}

/// 1-based line number of byte offset `at` (for parse diagnostics).
std::size_t line_of(const std::string& text, std::size_t at) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < at && i < text.size(); ++i) {
    if (text[i] == '\n') ++line;
  }
  return line;
}

enum class LoadResult { kOk, kEmpty, kError };

/// Parses `file` into flattened numeric leaves. An empty (or
/// whitespace-only) file is kEmpty — the caller decides whether that is
/// fatal. Malformed JSON reports the offending file and line.
LoadResult load_metrics(const std::string& file, FlatMetrics& out) {
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "nezha_report: cannot open %s\n", file.c_str());
    return LoadResult::kError;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  bool blank = true;
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) {
      blank = false;
      break;
    }
  }
  if (blank) return LoadResult::kEmpty;
  Parser p{text};
  parse_value(p, "", out);
  p.skip_ws();
  if (p.failed || p.i != text.size()) {
    std::fprintf(stderr,
                 "nezha_report: %s: malformed JSON at line %zu (byte %zu of "
                 "%zu)%s\n",
                 file.c_str(), line_of(text, p.i), p.i, text.size(),
                 p.i >= text.size() ? " — input looks truncated" : "");
    return LoadResult::kError;
  }
  return LoadResult::kOk;
}

// --- metric classification --------------------------------------------------

enum class Direction { kHigherIsBetter, kLowerIsBetter, kInformational };

bool contains_any(const std::string& s, const std::vector<const char*>& subs) {
  for (const char* sub : subs)
    if (s.find(sub) != std::string::npos) return true;
  return false;
}

Direction classify(const std::string& path) {
  // Config echoes and wall-clock profile attribution are never judged:
  // they describe the run, they aren't results of it. The
  // *_wall_ns profiler fields in particular exist to record where
  // wall-clock goes — gating them would turn runner noise into failures.
  if (contains_any(path, {"burst_config", "schema", "num_vswitches",
                          "window_", "_window", "wall_ns", "profile.",
                          "slo."}))
    return Direction::kInformational;
  if (contains_any(path, {"per_sec", "_pps", "speedup", "sweeps",
                          "throughput", "probe_delivered"}))
    return Direction::kHigherIsBetter;
  if (contains_any(path, {"alloc", "latency", "loss"}))
    return Direction::kLowerIsBetter;
  // Counts (simulated_packets, completed_connections, sent, delivered...):
  // exact-equality properties of these are the bench binaries' own gates.
  return Direction::kInformational;
}

struct Delta {
  std::string path;
  double base;
  double fresh;
  double rel;  // signed change relative to baseline, + = fresh larger
  Direction dir;
  bool regression;
};

struct PairReport {
  std::string base_file;
  std::string fresh_file;
  std::vector<Delta> deltas;
  std::vector<std::string> added;    // [NEW] paths
  std::vector<std::string> removed;  // [REMOVED] paths
  int regressions = 0;
};

// --- telemetry stream evaluation --------------------------------------------

struct SloRuleRow {
  std::string rule;
  double threshold = 0.0;
  double last = 0.0;
  double worst = 0.0;
  double burn = 0.0;
  std::uint64_t violations = 0;
  std::uint64_t worst_node = 0;
};

struct ShardProfileRow {
  std::uint64_t shard = 0;
  std::uint64_t epochs = 0;
  double snapshot_ns = 0.0;
  double advance_ns = 0.0;
  double wait_ns = 0.0;
  double ff_ns = 0.0;
  double fence_ns = 0.0;  // shard 0 only
  std::uint64_t fence_barriers = 0;
  std::uint64_t ff_jumps = 0;
  bool has_fence = false;
};

struct StreamReport {
  std::string file;
  bool empty = false;       // no samples (blank file or samples_taken == 0)
  std::uint64_t samples = 0;
  std::uint64_t slo_violations = 0;
  double max_burn = 0.0;
  std::vector<SloRuleRow> rules;
  bool has_profile = false;
  ShardProfileRow profile;
};

double get_or(const FlatMetrics& m, const std::string& key, double dflt) {
  const auto it = m.find(key);
  return it == m.end() ? dflt : it->second;
}

StreamReport evaluate_stream(const std::string& file, const FlatMetrics& m,
                             bool blank) {
  StreamReport r;
  r.file = file;
  if (blank) {
    r.empty = true;
    return r;
  }
  r.samples = static_cast<std::uint64_t>(get_or(m, "samples_taken", 0.0));
  if (r.samples == 0) r.empty = true;
  r.slo_violations =
      static_cast<std::uint64_t>(get_or(m, "slo.total_violations", 0.0));

  // Collect per-rule rows from the flattened "slo.rules.<rule>.<field>"
  // paths (rule names never contain a dot).
  const std::string prefix = "slo.rules.";
  for (auto it = m.lower_bound(prefix);
       it != m.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string rest = it->first.substr(prefix.size());
    const std::size_t dot = rest.find('.');
    if (dot == std::string::npos) continue;
    const std::string rule = rest.substr(0, dot);
    if (r.rules.empty() || r.rules.back().rule != rule) {
      SloRuleRow row;
      row.rule = rule;
      const std::string base = prefix + rule + ".";
      row.threshold = get_or(m, base + "threshold", 0.0);
      row.last = get_or(m, base + "last", 0.0);
      row.worst = get_or(m, base + "worst", 0.0);
      row.burn = get_or(m, base + "burn_rate", 0.0);
      row.violations =
          static_cast<std::uint64_t>(get_or(m, base + "violations", 0.0));
      row.worst_node =
          static_cast<std::uint64_t>(get_or(m, base + "worst_node", 0.0));
      if (row.burn > r.max_burn) r.max_burn = row.burn;
      r.rules.push_back(row);
    }
  }

  if (m.count("sim.profile.epochs") != 0) {
    r.has_profile = true;
    r.profile.shard =
        static_cast<std::uint64_t>(get_or(m, "sim.profile.shard", 0.0));
    r.profile.epochs =
        static_cast<std::uint64_t>(get_or(m, "sim.profile.epochs", 0.0));
    r.profile.snapshot_ns = get_or(m, "sim.profile.snapshot_wall_ns", 0.0);
    r.profile.advance_ns = get_or(m, "sim.profile.advance_wall_ns", 0.0);
    r.profile.wait_ns = get_or(m, "sim.profile.barrier_wait_wall_ns", 0.0);
    r.profile.ff_ns = get_or(m, "sim.profile.fast_forward_wall_ns", 0.0);
    if (m.count("sim.profile.fence_wall_ns") != 0) {
      r.profile.has_fence = true;
      r.profile.fence_ns = get_or(m, "sim.profile.fence_wall_ns", 0.0);
      r.profile.fence_barriers = static_cast<std::uint64_t>(
          get_or(m, "sim.profile.fence_barriers", 0.0));
      r.profile.ff_jumps =
          static_cast<std::uint64_t>(get_or(m, "sim.profile.ff_jumps", 0.0));
    }
  }
  return r;
}

// --- markdown dashboard -----------------------------------------------------

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string fmt_ms(double ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f", ns * 1e-6);
  return buf;
}

void write_markdown(std::FILE* md, const std::vector<PairReport>& pairs,
                    const std::vector<StreamReport>& streams, double threshold,
                    int total_regressions, std::uint64_t total_slo,
                    const std::string& trajectory_file) {
  const bool pass = total_regressions == 0 && total_slo == 0;
  std::fprintf(md, "# nezha_report — %s\n\n", pass ? "PASS ✅" : "FAIL ❌");
  std::size_t added = 0, removed = 0;
  for (const PairReport& p : pairs) {
    added += p.added.size();
    removed += p.removed.size();
  }
  std::fprintf(md,
               "- bench pairs: %zu · regressions: %d (threshold %.0f%%) · "
               "schema drift: %zu new / %zu removed\n",
               pairs.size(), total_regressions, threshold * 100.0, added,
               removed);
  double max_burn = 0.0;
  for (const StreamReport& s : streams) {
    if (s.max_burn > max_burn) max_burn = s.max_burn;
  }
  std::fprintf(md,
               "- telemetry streams: %zu · SLO violations: %llu · max burn "
               "rate: %s\n\n",
               streams.size(), static_cast<unsigned long long>(total_slo),
               fmt(max_burn).c_str());

  std::fprintf(md, "## Headline rates\n\n");
  std::fprintf(md, "| pair | metric | baseline | fresh | Δ |\n");
  std::fprintf(md, "|---|---|---:|---:|---:|\n");
  bool any_rate = false;
  for (const PairReport& p : pairs) {
    // Every regression, plus the biggest movers among gated metrics.
    std::vector<const Delta*> rows;
    for (const Delta& d : p.deltas) {
      if (d.dir != Direction::kInformational) rows.push_back(&d);
    }
    std::sort(rows.begin(), rows.end(), [](const Delta* a, const Delta* b) {
      if (a->regression != b->regression) return a->regression;
      return std::fabs(a->rel) > std::fabs(b->rel);
    });
    std::size_t shown = 0;
    for (const Delta* d : rows) {
      if (!d->regression && shown >= 3) break;
      std::fprintf(md, "| %s | %s%s | %s | %s | %+.1f%% |\n",
                   p.fresh_file.c_str(), d->regression ? "**" : "",
                   (d->path + (d->regression ? "**" : "")).c_str(),
                   fmt(d->base).c_str(), fmt(d->fresh).c_str(),
                   d->rel * 100.0);
      ++shown;
      any_rate = true;
    }
  }
  if (!any_rate) std::fprintf(md, "| — | (no gated metrics) | | | |\n");

  std::fprintf(md, "\n## SLO\n\n");
  bool any_slo = false;
  std::fprintf(md,
               "| stream | rule | threshold | last | worst | worst node | "
               "burn rate | violations |\n");
  std::fprintf(md, "|---|---|---:|---:|---:|---:|---:|---:|\n");
  for (const StreamReport& s : streams) {
    if (s.empty) {
      std::fprintf(md, "| %s | _(no samples)_ | | | | | | |\n",
                   s.file.c_str());
      any_slo = true;
      continue;
    }
    for (const SloRuleRow& r : s.rules) {
      std::fprintf(md, "| %s | %s%s%s | %s | %s | %s | %llu | %s | %llu |\n",
                   s.file.c_str(), r.violations ? "**" : "", r.rule.c_str(),
                   r.violations ? "**" : "", fmt(r.threshold).c_str(),
                   fmt(r.last).c_str(), fmt(r.worst).c_str(),
                   static_cast<unsigned long long>(r.worst_node),
                   fmt(r.burn).c_str(),
                   static_cast<unsigned long long>(r.violations));
      any_slo = true;
    }
  }
  if (!any_slo) std::fprintf(md, "| — | (no telemetry stream) | | | | | | |\n");

  std::fprintf(md, "\n## Shard phase profile\n\n");
  bool any_prof = false;
  std::fprintf(md,
               "| stream | shard | epochs | snapshot ms | advance ms | "
               "barrier wait ms | fast-forward ms | fence ms | fence "
               "barriers | ff jumps |\n");
  std::fprintf(md, "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n");
  for (const StreamReport& s : streams) {
    if (!s.has_profile) continue;
    const ShardProfileRow& p = s.profile;
    std::fprintf(md,
                 "| %s | %llu | %llu | %s | %s | %s | %s | %s | %llu | %llu "
                 "|\n",
                 s.file.c_str(), static_cast<unsigned long long>(p.shard),
                 static_cast<unsigned long long>(p.epochs),
                 fmt_ms(p.snapshot_ns).c_str(), fmt_ms(p.advance_ns).c_str(),
                 fmt_ms(p.wait_ns).c_str(), fmt_ms(p.ff_ns).c_str(),
                 p.has_fence ? fmt_ms(p.fence_ns).c_str() : "—",
                 static_cast<unsigned long long>(p.fence_barriers),
                 static_cast<unsigned long long>(p.ff_jumps));
    any_prof = true;
  }
  if (!any_prof)
    std::fprintf(md, "| — | (no sharded telemetry stream) | | | | | | | | |\n");

  std::fprintf(md, "\n## Schema drift\n\n");
  bool any_drift = false;
  for (const PairReport& p : pairs) {
    for (const std::string& path : p.added) {
      std::fprintf(md, "- `[NEW]` %s: `%s`\n", p.fresh_file.c_str(),
                   path.c_str());
      any_drift = true;
    }
    for (const std::string& path : p.removed) {
      std::fprintf(md, "- `[REMOVED]` %s: `%s`\n", p.fresh_file.c_str(),
                   path.c_str());
      any_drift = true;
    }
  }
  if (!any_drift) std::fprintf(md, "- none\n");
  if (!trajectory_file.empty()) {
    std::fprintf(md, "\n_run summary appended to `%s`_\n",
                 trajectory_file.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 0.10;
  std::vector<std::string> files;
  std::vector<std::string> telemetry_files;
  std::string markdown_file;
  std::string trajectory_file;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--threshold") == 0 && a + 1 < argc) {
      threshold = std::strtod(argv[++a], nullptr);
    } else if (std::strncmp(argv[a], "--threshold=", 12) == 0) {
      threshold = std::strtod(argv[a] + 12, nullptr);
    } else if (std::strcmp(argv[a], "--telemetry") == 0 && a + 1 < argc) {
      telemetry_files.push_back(argv[++a]);
    } else if (std::strcmp(argv[a], "--markdown") == 0 && a + 1 < argc) {
      markdown_file = argv[++a];
    } else if (std::strcmp(argv[a], "--trajectory") == 0 && a + 1 < argc) {
      trajectory_file = argv[++a];
    } else if (std::strcmp(argv[a], "--help") == 0) {
      std::printf(
          "usage: nezha_report [--threshold FRAC] [--telemetry FILE]...\n"
          "                    [--markdown FILE] [--trajectory FILE]\n"
          "                    [BASELINE FRESH ...]\n");
      return 0;
    } else {
      files.push_back(argv[a]);
    }
  }
  if (files.size() % 2 != 0) {
    std::fprintf(stderr,
                 "nezha_report: need (baseline, fresh) file pairs; got %zu "
                 "file(s)\n",
                 files.size());
    return 2;
  }
  if (files.empty() && telemetry_files.empty()) {
    std::fprintf(stderr,
                 "nezha_report: nothing to do — pass bench pairs and/or "
                 "--telemetry streams (see --help)\n");
    return 2;
  }

  int total_regressions = 0;
  std::vector<PairReport> pairs;
  for (std::size_t pair = 0; pair + 1 < files.size(); pair += 2) {
    FlatMetrics base, fresh;
    // Bench inputs are mandatory content: an empty file here is an error
    // (a bench that wrote nothing), unlike a telemetry stream.
    const LoadResult rb = load_metrics(files[pair], base);
    const LoadResult rf = load_metrics(files[pair + 1], fresh);
    if (rb != LoadResult::kOk || rf != LoadResult::kOk) {
      if (rb == LoadResult::kEmpty)
        std::fprintf(stderr, "nezha_report: %s: empty bench JSON\n",
                     files[pair].c_str());
      if (rf == LoadResult::kEmpty)
        std::fprintf(stderr, "nezha_report: %s: empty bench JSON\n",
                     files[pair + 1].c_str());
      return 2;
    }

    PairReport rep;
    rep.base_file = files[pair];
    rep.fresh_file = files[pair + 1];

    std::printf("== %s vs %s (threshold %.0f%%)\n", files[pair].c_str(),
                files[pair + 1].c_str(), threshold * 100.0);

    for (const auto& [path, bval] : base) {
      auto it = fresh.find(path);
      if (it == fresh.end()) {
        // Present only in the baseline: the metric was removed (or renamed)
        // by a schema rev. Informational, never gated — show the stranded
        // baseline value so re-baselining is a conscious act.
        std::printf("  %-12s %-52s %14.4g -> (absent)\n", "[REMOVED]",
                    path.c_str(), bval);
        rep.removed.push_back(path);
        continue;
      }
      const double fval = it->second;
      Delta d{path, bval, fval, 0.0, classify(path), false};
      if (bval != 0.0) {
        d.rel = (fval - bval) / std::fabs(bval);
      } else {
        // Zero baseline (e.g. allocs_per_packet = 0): relative change is
        // undefined, so judge the absolute drift against the threshold.
        d.rel = fval;
      }
      if (d.dir == Direction::kHigherIsBetter)
        d.regression = d.rel < -threshold;
      else if (d.dir == Direction::kLowerIsBetter)
        d.regression = d.rel > threshold;
      rep.deltas.push_back(d);
    }
    for (const auto& [path, fval] : fresh) {
      // Present only in the fresh run: a new metric the baseline predates.
      // Informational, never gated — it has nothing to regress against
      // until the baseline is re-recorded.
      if (base.find(path) == base.end()) {
        std::printf("  %-12s %-52s %14s -> %-14.4g\n", "[NEW]", path.c_str(),
                    "(absent)", fval);
        rep.added.push_back(path);
      }
    }

    for (const auto& d : rep.deltas) {
      const char* tag = d.regression ? "[REGRESSION]"
                        : d.dir == Direction::kInformational
                            ? "[INFO]"
                            : "[OK]";
      if (d.regression) {
        ++rep.regressions;
        ++total_regressions;
      }
      // Keep the report short: unchanged informational leaves are noise,
      // and wall-clock profiler fields move every run by construction.
      if (d.dir == Direction::kInformational &&
          (d.base == d.fresh || d.path.find("wall_ns") != std::string::npos))
        continue;
      std::printf("  %-12s %-52s %14.4g -> %-14.4g (%+.1f%%)\n", tag,
                  d.path.c_str(), d.base, d.fresh, d.rel * 100.0);
    }
    pairs.push_back(std::move(rep));
  }

  std::uint64_t total_slo = 0;
  std::vector<StreamReport> streams;
  for (const std::string& tf : telemetry_files) {
    FlatMetrics m;
    const LoadResult res = load_metrics(tf, m);
    if (res == LoadResult::kError) return 2;
    StreamReport sr = evaluate_stream(tf, m, res == LoadResult::kEmpty);
    if (sr.empty) {
      std::printf("== telemetry %s: no samples (empty stream) — skipped\n",
                  tf.c_str());
    } else {
      std::printf("== telemetry %s: %llu samples, %llu SLO violation(s), "
                  "max burn %.3f\n",
                  tf.c_str(), static_cast<unsigned long long>(sr.samples),
                  static_cast<unsigned long long>(sr.slo_violations),
                  sr.max_burn);
      for (const SloRuleRow& r : sr.rules) {
        if (r.violations == 0) continue;
        std::printf(
            "  [SLO]        %-52s worst %.4g (node %llu) burn %.3f x%llu\n",
            r.rule.c_str(), r.worst,
            static_cast<unsigned long long>(r.worst_node), r.burn,
            static_cast<unsigned long long>(r.violations));
      }
      total_slo += sr.slo_violations;
    }
    streams.push_back(std::move(sr));
  }

  if (!markdown_file.empty()) {
    std::FILE* md = std::fopen(markdown_file.c_str(), "w");
    if (md == nullptr) {
      std::fprintf(stderr, "nezha_report: cannot write %s\n",
                   markdown_file.c_str());
      return 2;
    }
    write_markdown(md, pairs, streams, threshold, total_regressions,
                   total_slo, trajectory_file);
    std::fclose(md);
  }

  if (!trajectory_file.empty()) {
    std::FILE* tj = std::fopen(trajectory_file.c_str(), "a");
    if (tj == nullptr) {
      std::fprintf(stderr, "nezha_report: cannot append to %s\n",
                   trajectory_file.c_str());
      return 2;
    }
    std::size_t added = 0, removed = 0;
    for (const PairReport& p : pairs) {
      added += p.added.size();
      removed += p.removed.size();
    }
    double max_burn = 0.0;
    for (const StreamReport& s : streams) {
      if (s.max_burn > max_burn) max_burn = s.max_burn;
    }
    const bool pass = total_regressions == 0 && total_slo == 0;
    std::fprintf(tj,
                 "{\"utc\": %lld, \"pairs\": %zu, \"regressions\": %d, "
                 "\"new\": %zu, \"removed\": %zu, \"streams\": %zu, "
                 "\"slo_violations\": %llu, \"max_burn\": %.4g, "
                 "\"verdict\": \"%s\"}\n",
                 static_cast<long long>(std::time(nullptr)), pairs.size(),
                 total_regressions, added, removed, streams.size(),
                 static_cast<unsigned long long>(total_slo), max_burn,
                 pass ? "pass" : "fail");
    std::fclose(tj);
  }

  if (total_regressions > 0 || total_slo > 0) {
    std::printf(
        "nezha_report: FAIL — %d metric(s) regressed, %llu SLO "
        "violation(s)\n",
        total_regressions, static_cast<unsigned long long>(total_slo));
    return 1;
  }
  std::printf("nezha_report: no regressions past the threshold, SLOs met\n");
  return 0;
}
