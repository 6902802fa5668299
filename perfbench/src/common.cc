#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

const std::vector<Pass>& Passes() {
  using critique::IsolationLevel;
  static const std::vector<Pass> passes = {
      {"ser", IsolationLevel::kSerializable, false},
      {"si", IsolationLevel::kSnapshotIsolation, false},
      {"ssi", IsolationLevel::kSerializableSI, false},
      {"orc", IsolationLevel::kOracleReadConsistency, false},
      {"si_checked", IsolationLevel::kSnapshotIsolation, true},
  };
  return passes;
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Zipf::Zipf(uint32_t n, double theta) : n_(n), cdf_(n) {
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint32_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  uint32_t rank = static_cast<uint32_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  if (rank >= n_) rank = n_ - 1;
  return (rank * 0x9E3779B1u) & (n_ - 1);
}

void Verdict::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lk(mu_);
  // The first few failures say what went wrong; the rest only count.
  if (++failures_ <= 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

bool Verdict::ok() const {
  std::lock_guard<std::mutex> lk(mu_);
  return failures_ == 0;
}

const char* SpanNameOf(uint32_t name) {
  static const char* const names[kSpanNameCount] = {
      "txn",       "db.begin", "engine.read",   "engine.write", "db.commit",
      "storage.gc", "sched.session", "sched.step", "recover",
  };
  return name < kSpanNameCount ? names[name] : "?";
}

namespace {
std::atomic<uint64_t> g_generation{1};
}  // namespace

SpanLog::SpanLog() : generation_(g_generation.fetch_add(1)) {}

SpanLog::Buffer& SpanLog::Local() {
  // One cached buffer per thread; a different log (by generation) makes
  // the thread register a new one.
  thread_local uint64_t cached_generation = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_generation != generation_) {
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    cached = buffers_.back().get();
    cached->index = buffers_.size();
    cached->spans.reserve(1 << 16);
    cached_generation = generation_;
  }
  return *cached;
}

uint64_t SpanLog::NewId() {
  Buffer& b = Local();
  return (b.index << 40) | ++b.next_seq;
}

void SpanLog::Record(const Span& s) { Local().spans.push_back(s); }

std::vector<Span> SpanLog::Collect() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

std::vector<SpanSummary> Summarize(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it != index.end()) child_ns[it->second] += s.end_ns - s.start_ns;
  }
  std::vector<std::vector<uint64_t>> dur(kSpanNameCount), self(kSpanNameCount);
  std::vector<SpanSummary> out(kSpanNameCount);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name >= kSpanNameCount) continue;
    const int64_t d = s.end_ns - s.start_ns;
    const int64_t own = std::max<int64_t>(0, d - child_ns[i]);
    dur[s.name].push_back(static_cast<uint64_t>(d));
    self[s.name].push_back(static_cast<uint64_t>(own));
    out[s.name].self_ns_total += static_cast<double>(own);
  }
  for (uint32_t n = 0; n < kSpanNameCount; ++n) {
    out[n].count = dur[n].size();
    if (dur[n].empty()) continue;
    out[n].median_ns = Quantile(dur[n], 0.5);
    out[n].median_self_ns = Quantile(self[n], 0.5);
  }
  return out;
}

namespace {
int64_t g_process_start_ns = 0;
int64_t g_excluded_ns = 0;
int64_t g_setup_ns = -1;
}  // namespace

void MarkProcessStart() { g_process_start_ns = NowNs(); }

void ExcludeFromSetup(int64_t ns) { g_excluded_ns += ns; }

void MarkSetupDone() {
  if (g_setup_ns < 0) g_setup_ns = NowNs() - g_process_start_ns - g_excluded_ns;
}

double SetupSeconds() {
  return g_setup_ns < 0 ? 0.0 : static_cast<double>(g_setup_ns) * 1e-9;
}

uint64_t HeapBytesInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double Quantile(std::vector<uint64_t>& v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = k == 0 ? 0 : k - 1;
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

const std::vector<std::string>& ItemNames(uint32_t n) {
  static std::map<uint32_t, std::vector<std::string>> cache;
  std::vector<std::string>& names = cache[n];
  if (names.empty()) {
    names.reserve(n);
    char buf[16];
    for (uint32_t i = 0; i < n; ++i) {
      std::snprintf(buf, sizeof buf, "k%06u", i);
      names.emplace_back(buf);
    }
  }
  return names;
}

}  // namespace perfbench
