// Shared pieces of the benchmark binary: run options, the engine passes,
// deterministic input generation, the span log of the traced mode, and
// the verdict every correctness check reports into.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "critique/engine/isolation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One engine configuration within a workload.  Every workload runs all
/// five, so every run reports every end-to-end metric.
struct Pass {
  const char* name;
  critique::IsolationLevel level;
  bool online_check;  ///< DbOptions::online_check
};

const std::vector<Pass>& Passes();

/// splitmix64: derives independent seeds from (seed, round, purpose).
uint64_t Mix(uint64_t x);

/// xorshift-style generator with a fixed algorithm, so the same seed gives
/// the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(Mix(seed) | 1) {}
  uint64_t Next() {
    s_ ^= s_ >> 12;
    s_ ^= s_ << 25;
    s_ ^= s_ >> 27;
    return s_ * 0x2545F4914F6CDD1DULL;
  }
  /// Uniform in [0, n).
  uint32_t Below(uint32_t n) {
    return static_cast<uint32_t>((Next() >> 32) * n >> 32);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Zipf(theta) over [0, n) by inversion of a precomputed CDF.  Ranks are
/// scattered over the key space by an odd multiplier (n a power of two),
/// so hot keys are not neighbours in the store's key order.
class Zipf {
 public:
  Zipf(uint32_t n, double theta);
  uint32_t Sample(Rng& rng) const;

 private:
  uint32_t n_;
  std::vector<double> cdf_;
};

/// Collects correctness failures; a run with any failure prints
/// "correct": false.  Thread-safe.
class Verdict {
 public:
  void Fail(const std::string& what);
  bool ok() const;

 private:
  mutable std::mutex mu_;
  uint64_t failures_ = 0;
};

/// A complete span: recorded when it closes, linked to its parent by id.
struct Span {
  uint64_t id;
  uint64_t parent;  ///< 0 for a root
  uint64_t txn;     ///< the benchmark's own transaction / session number
  uint32_t name;    ///< index into SpanNames()
  int64_t start_ns;
  int64_t end_ns;
};

enum SpanName : uint32_t {
  kSpanTxn,         ///< one benchmark transaction, retries included
  kSpanBegin,       ///< Database::Begin
  kSpanRead,        ///< Transaction::GetScalar
  kSpanWrite,       ///< Transaction::Put
  kSpanCommit,      ///< Transaction::Commit (WAL and checker ingest inside)
  kSpanGc,          ///< Database::GarbageCollectVersions
  kSpanSession,     ///< SessionExecutor submit -> done
  kSpanStep,        ///< the benchmark's own session step body
  kSpanRecover,     ///< Database::Recover
  kSpanNameCount,
};

const char* SpanNameOf(uint32_t name);

/// Spans of one traced trial, kept in memory.  Each thread appends to its
/// own buffer, so recording takes no lock after a thread's first span.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// A fresh span id (unique across threads), taken when the span opens.
  uint64_t NewId();
  void Record(const Span& s);
  /// All spans, buffer by buffer.  Call only when no thread records.
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    uint64_t index = 0;
    uint64_t next_seq = 0;
    std::vector<Span> spans;
  };
  Buffer& Local();

  const uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Opens a span on construction and records it on destruction.  A null
/// log makes it a no-op, so one body serves the traced and untraced runs.
class SpanScope {
 public:
  SpanScope(SpanLog* log, uint32_t name, uint64_t parent, uint64_t txn)
      : log_(log) {
    if (log_ == nullptr) return;
    span_ = Span{log_->NewId(), parent, txn, name, NowNs(), 0};
  }
  ~SpanScope() {
    if (log_ == nullptr) return;
    span_.end_ns = NowNs();
    log_->Record(span_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint64_t id() const { return log_ == nullptr ? 0 : span_.id; }

 private:
  SpanLog* log_;
  Span span_{};
};

/// Per span name: count, median duration and total self time (duration
/// minus the part covered by child spans).
struct SpanSummary {
  uint64_t count = 0;
  double median_ns = 0;
  double self_ns_total = 0;
  double median_self_ns = 0;
};
std::vector<SpanSummary> Summarize(const std::vector<Span>& spans);

/// What one trial of one pass measured.
struct Trial {
  double seconds = 0;     ///< wall time of the timed phase
  uint64_t commits = 0;   ///< acknowledged in the timed phase
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> latency_ns;  ///< one per transaction or session
  /// Per-layer figures keyed without the pass prefix ("wal.syncs_per_commit").
  std::map<std::string, double> layer;
};

/// The cold set-up: from the process's start (main's entry) to the end of
/// the first database's construction and initial load, less the time
/// spent making the benchmark's own inputs.  Only the first
/// MarkSetupDone() counts; later set-ups in the process are warm.
void MarkProcessStart();
void ExcludeFromSetup(int64_t ns);
void MarkSetupDone();
double SetupSeconds();

/// Heap bytes the process has allocated and not freed (glibc mallinfo2).
/// Resident memory also depends on what the allocator keeps of freed
/// trials; allocated bytes show what a trial itself keeps.
uint64_t HeapBytesInUse();

/// q-quantile (0..1) of `v` by nearest rank; reorders `v`.
double Quantile(std::vector<uint64_t>& v, double q);
double Median(std::vector<double> v);

/// "k%05u"-style item names, built once per process.
const std::vector<std::string>& ItemNames(uint32_t n);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
