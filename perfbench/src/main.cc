// perfbench: one benchmark over the isolation engines.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// A run is a warm-up round and then measured rounds until S seconds have
// passed.  A round runs every pass once on a fresh database with the same
// generated inputs; the pass order alternates between rounds.  Each trial
// does a fixed amount of work, so a faster program finishes more trials
// rather than bigger ones.  The last line of stdout is one JSON object:
// with --trace 0 the end-to-end metrics (medians over trials), with
// --trace 1 the per-layer metrics of a separate traced run, where every
// round runs each pass untraced and then traced.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Per-layer metrics each pass reports as "<pass>.<name>".  Where a
/// workload does not reach a layer (no WAL outside durable-sessions, no
/// explicit Begin/Commit inside the session executor) the figure reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kPassLayerMetrics[] = {
    {"db.begin_ns", "ns"},
    {"db.commit_ns", "ns"},
    {"engine.read_ns", "ns"},
    {"engine.write_ns", "ns"},
    {"engine.history_actions_per_txn", "count"},
    {"mem.bytes_per_txn", "B"},
    {"storage.gc_pass_ns", "ns"},
    {"storage.versions_per_item", "count"},
    {"storage.max_chain", "count"},
    {"db.retries_per_txn", "count"},
    {"engine.fcw_aborts_per_txn", "count"},
    {"engine.ssi_aborts_per_txn", "count"},
    {"engine.deadlock_aborts_per_txn", "count"},
    {"lock.waits_per_txn", "count"},
    {"wal.syncs_per_commit", "count"},
    {"wal.mean_batch", "count"},
    {"wal.sync_ns", "ns"},
    {"wal.bytes_per_commit", "B"},
    {"sched.step_ns", "ns"},
    {"sched.commit_wait_ns", "ns"},
    {"sched.steals_per_txn", "count"},
    {"recover.s", "s"},
    {"recover.records_per_s", "1/s"},
    {"trace.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/run";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\nworkloads:",
               why);
  for (const auto& w : WorkloadNames()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (!(a.seconds > 0 && a.seconds <= 3600)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      a.trace = val[0] == '1';
    } else if (flag == "--out-dir") {
      a.out_dir = val;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + flag).c_str());
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

/// Everything measured for one pass across a run's measured rounds.
struct PassRecord {
  std::vector<double> txn_per_s, p50_us, p99_us;
  uint64_t samples = 0;
  // Traced run only.
  std::vector<double> traced_txn_per_s;
  std::map<std::string, std::vector<double>> layer;
  std::vector<SpanSummary> spans_total =
      std::vector<SpanSummary>(kSpanNameCount);
  std::vector<Span> last_spans;
};

void AddUntraced(Trial& t, PassRecord& r) {
  r.txn_per_s.push_back(static_cast<double>(t.commits) / t.seconds);
  r.p50_us.push_back(Quantile(t.latency_ns, 0.50) * 1e-3);
  r.p99_us.push_back(Quantile(t.latency_ns, 0.99) * 1e-3);
  r.samples += t.latency_ns.size();
}

void AddTraced(Trial& t, std::vector<Span> spans, PassRecord& r) {
  r.traced_txn_per_s.push_back(static_cast<double>(t.commits) / t.seconds);
  const std::vector<SpanSummary> sum = Summarize(spans);
  t.layer["db.begin_ns"] = sum[kSpanBegin].median_ns;
  t.layer["db.commit_ns"] = sum[kSpanCommit].median_ns;
  t.layer["engine.read_ns"] = sum[kSpanRead].median_ns;
  t.layer["engine.write_ns"] = sum[kSpanWrite].median_ns;
  t.layer["sched.step_ns"] = sum[kSpanStep].median_ns;
  // A session's self time is the part no step of it covers: waiting in
  // the ready queue and for its commit's sync.
  t.layer["sched.commit_wait_ns"] = sum[kSpanSession].median_self_ns;
  for (const auto& [k, val] : t.layer) r.layer[k].push_back(val);
  for (uint32_t n = 0; n < kSpanNameCount; ++n) {
    r.spans_total[n].count += sum[n].count;
    r.spans_total[n].self_ns_total += sum[n].self_ns_total;
  }
  r.last_spans = std::move(spans);
}

double LayerMedian(const PassRecord& r, const std::string& key) {
  auto it = r.layer.find(key);
  return it == r.layer.end() ? 0.0 : Median(it->second);
}

/// Keeps the span file to a size worth opening: the first spans of each
/// pass's last traced trial.
constexpr size_t kSpansPerPassInFile = 20000;

void WriteSpans(const std::string& path, const std::vector<PassRecord>& recs) {
  std::ofstream out(path);
  out << "pass,id,parent,txn,name,start_ns,end_ns\n";
  const auto& passes = Passes();
  for (size_t p = 0; p < passes.size(); ++p) {
    const auto& spans = recs[p].last_spans;
    const size_t n = std::min(spans.size(), kSpansPerPassInFile);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      out << passes[p].name << ',' << s.id << ',' << s.parent << ',' << s.txn
          << ',' << SpanNameOf(s.name) << ',' << s.start_ns << ','
          << s.end_ns << '\n';
    }
  }
}

void PrintSummary(const std::vector<PassRecord>& recs, bool traced) {
  const auto& passes = Passes();
  std::printf("%-11s %7s %12s %12s %12s %10s %10s %9s\n", "pass", "trials",
              "txn_per_s", "trial_min", "trial_max", "p50_us", "p99_us",
              "samples");
  for (size_t p = 0; p < passes.size(); ++p) {
    const PassRecord& r = recs[p];
    const auto [lo, hi] =
        std::minmax_element(r.txn_per_s.begin(), r.txn_per_s.end());
    std::printf("%-11s %7zu %12.1f %12.1f %12.1f %10.2f %10.2f %9llu\n",
                passes[p].name, r.txn_per_s.size(), Median(r.txn_per_s), *lo,
                *hi, Median(r.p50_us), Median(r.p99_us),
                static_cast<unsigned long long>(r.samples));
  }
  if (!traced) return;
  std::printf("\nself time by span (all traced trials)\n");
  std::printf("%-11s %-14s %10s %12s %7s\n", "pass", "span", "count",
              "self_ns/txn", "share");
  for (size_t p = 0; p < passes.size(); ++p) {
    const PassRecord& r = recs[p];
    double total = 0;
    for (const auto& s : r.spans_total) total += s.self_ns_total;
    const double txns =
        static_cast<double>(std::max<uint64_t>(
            1, std::max(r.spans_total[kSpanTxn].count,
                        r.spans_total[kSpanSession].count)));
    for (uint32_t n = 0; n < kSpanNameCount; ++n) {
      const SpanSummary& s = r.spans_total[n];
      if (s.count == 0) continue;
      std::printf("%-11s %-14s %10llu %12.1f %6.1f%%\n", passes[p].name,
                  SpanNameOf(n), static_cast<unsigned long long>(s.count),
                  s.self_ns_total / txns,
                  total > 0 ? 100.0 * s.self_ns_total / total : 0.0);
    }
  }
}

size_t PassIndex(const std::string& name) {
  const auto& passes = Passes();
  for (size_t p = 0; p < passes.size(); ++p) {
    if (name == passes[p].name) return p;
  }
  std::abort();
}

/// CPU model, CPU count, compiler and build type, printed with every run.
void PrintHost() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::printf("host: cpu \"%s\", nproc %u, compiler gcc %s, build %s\n",
              cpu.c_str(), std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE);
}

void AppendMetric(std::string& json, const std::string& name, double value,
                  const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  if (json.back() != '{') json += ", ";
  json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
          "\"}";
}

int Main(int argc, char** argv) {
  MarkProcessStart();
  const Args args = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) Usage(("cannot create " + args.out_dir).c_str());

  Verdict verdict;
  const Env env{args.out_dir, &verdict};
  // The benchmark's own inputs (item names, key distributions, the
  // warm-up round's operations) are made before the cold set-up ends and
  // are not part of it.
  const int64_t prep0 = NowNs();
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, env);
  if (w == nullptr) Usage(("unknown workload " + args.workload).c_str());
  w->NewRound(Mix(args.seed));
  ExcludeFromSetup(NowNs() - prep0);

  const auto& passes = Passes();
  std::vector<PassRecord> recs(passes.size());
  uint64_t attempted = 0, failed = 0;
  auto run = [&](size_t p, SpanLog* spans) {
    Trial t = w->Run(passes[p], spans);
    attempted += t.attempted;
    failed += t.failed;
    return t;
  };

  // Warm-up round: caches, allocator arenas and lazy set-up settle; its
  // first trial also ends the cold set-up that setup_s times.
  for (size_t p = 0; p < passes.size(); ++p) run(p, nullptr);

  // Measured rounds until the time is up: at least three, and no round is
  // started that the last one's length says would overrun the budget.
  const int64_t begin = NowNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  int64_t last_round = 0;
  for (uint64_t round = 1;; ++round) {
    const int64_t elapsed = NowNs() - begin;
    if (round > 3 && elapsed + last_round > budget) break;
    const int64_t r0 = NowNs();
    w->NewRound(Mix(args.seed) + round);
    for (size_t i = 0; i < passes.size(); ++i) {
      const size_t p = round % 2 == 1 ? i : passes.size() - 1 - i;
      Trial t = run(p, nullptr);
      AddUntraced(t, recs[p]);
      if (args.trace) {
        SpanLog log;
        Trial tt = run(p, &log);
        // Heap growth is measured untraced: spans take memory too.
        tt.layer["mem.bytes_per_txn"] = t.layer["mem.bytes_per_txn"];
        AddTraced(tt, log.Collect(), recs[p]);
      }
    }
    last_round = NowNs() - r0;
  }

  PrintSummary(recs, args.trace);
  PrintHost();
  std::string json = "{";
  if (!args.trace) {
    AppendMetric(json, "setup_s", SetupSeconds(), "s");
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    AppendMetric(json, "peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024,
                 "MB");
    for (size_t p = 0; p < passes.size(); ++p) {
      const std::string pre = passes[p].name;
      AppendMetric(json, pre + ".txn_per_s", Median(recs[p].txn_per_s),
                   "txn/s");
      AppendMetric(json, pre + ".p99_us", Median(recs[p].p99_us), "us");
    }
  } else {
    for (size_t p = 0; p < passes.size(); ++p) {
      PassRecord& r = recs[p];
      const double untraced = Median(r.txn_per_s);
      r.layer["trace.overhead_pct"] = {
          untraced > 0 ? 100.0 * (1.0 - Median(r.traced_txn_per_s) / untraced)
                       : 0.0};
      for (const LayerMetric& m : kPassLayerMetrics) {
        AppendMetric(json, std::string(passes[p].name) + "." + m.name,
                     LayerMedian(r, m.name), m.unit);
      }
    }
    // The checker's own cost: si_checked against si, untraced, same inputs.
    const size_t si = PassIndex("si"), checked = PassIndex("si_checked");
    const double ns_si = 1e9 / Median(recs[si].txn_per_s);
    const double ns_checked = 1e9 / Median(recs[checked].txn_per_s);
    AppendMetric(json, "check.ns_per_commit", ns_checked - ns_si, "ns");
    AppendMetric(json, "check.peak_live_nodes",
                 LayerMedian(recs[checked], "check.peak_live_nodes"), "count");
    AppendMetric(json, "check.edges_per_commit",
                 LayerMedian(recs[checked], "check.edges_per_commit"),
                 "count");
    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".csv";
    WriteSpans(path, recs);
    std::printf("spans written to %s\n", path.c_str());
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              verdict.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
