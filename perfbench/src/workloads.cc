#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <thread>
#include <utility>

#include <unistd.h>

#include "critique/db/database.h"
#include "critique/sched/session_executor.h"

namespace perfbench {
namespace {

using critique::Database;
using critique::DbOptions;
using critique::Status;
using critique::Transaction;
using critique::Value;
using critique::VersionGcMode;

constexpr int64_t kInitial = 1000;
/// Items per transaction when a trial reads back the whole store.
constexpr uint32_t kReadChunk = 4096;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

DbOptions OptionsFor(const Pass& pass, VersionGcMode gc) {
  DbOptions o(pass.level);
  o.online_check = pass.online_check;
  o.version_gc = gc;
  return o;
}

void LoadItems(Database& db, uint32_t items, Verdict& v) {
  const auto& names = ItemNames(items);
  for (uint32_t i = 0; i < items; ++i) {
    const Status s = db.Load(names[i], Value(kInitial));
    if (!s.ok()) v.Fail("load " + names[i] + ": " + s.ToString());
  }
}

/// Reads one item and checks it against the model's value at that moment.
Status ReadChecked(Transaction& x, const std::string& key, int64_t want,
                   SpanLog* spans, uint64_t parent, uint64_t txn, Verdict& v,
                   int64_t* got) {
  SpanScope sp(spans, kSpanRead, parent, txn);
  auto r = x.GetScalar(key);
  if (!r.ok()) return r.status();
  *got = r->AsInt();
  if (*got != want) {
    v.Fail("read " + key + " = " + std::to_string(*got) + ", model " +
           std::to_string(want));
  }
  return Status::OK();
}

Status Write(Transaction& x, const std::string& key, int64_t value,
             SpanLog* spans, uint64_t parent, uint64_t txn) {
  SpanScope sp(spans, kSpanWrite, parent, txn);
  return x.Put(key, Value(value));
}

/// Runs `body(txn, parent_span)` as one transaction under the database's
/// retry policy.  Untraced it goes through Database::Execute.  Traced it
/// drives Begin and Commit itself with the same protocol, so each gets
/// its own span, and counts its retries into `*traced_retries`.
template <typename Body>
Status RunTxn(Database& db, SpanLog* spans, uint64_t txn,
              uint64_t* traced_retries, Body&& body) {
  if (spans == nullptr) {
    return db.Execute([&](Transaction& x) { return body(x, uint64_t{0}); });
  }
  SpanScope root(spans, kSpanTxn, 0, txn);
  for (int attempt = 1;; ++attempt) {
    Transaction x = [&] {
      SpanScope b(spans, kSpanBegin, root.id(), txn);
      return db.Begin();
    }();
    Status s = body(x, root.id());
    if (s.ok() && x.active()) {
      SpanScope c(spans, kSpanCommit, root.id(), txn);
      s = x.Commit();
    }
    if (x.active()) (void)x.Rollback();
    if (s.ok()) return s;
    if (!db.retry_policy().RetryTransaction(s, attempt)) return s;
    ++*traced_retries;
    const auto delay = db.retry_policy().RetryDelay(attempt);
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
}

uint64_t RegistryValue(const Database& db, const std::string& name) {
  for (const auto& m : db.metrics().Collect()) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// A group-commit WAL on a simulated sync device, in a file of its own.
void UseSimulatedWal(DbOptions& opts, const std::string& path,
                     std::chrono::microseconds sync_latency) {
  opts.wal_path = path;
  opts.group_commit = true;
  opts.fsync_mode = critique::FsyncMode::kSimulated;
  opts.fsync_latency = sync_latency;
}

std::string ScratchPath(const Env& env, const std::string& what,
                        const Pass& pass) {
  return (std::filesystem::path(env.out_dir) /
          (what + "-" + std::to_string(::getpid()) + "-" + pass.name))
      .string();
}

/// The log's figures for a trial's timed phase.
void WalLayer(Database& db, uint64_t commits, Trial& t) {
  const critique::GroupCommitStats ws = db.wal()->stats();
  t.layer["wal.syncs_per_commit"] = Ratio(ws.syncs, commits);
  for (const auto& m : db.metrics().Collect()) {
    if (m.name == "wal.fsync_us") {
      t.layer["wal.sync_ns"] = m.histogram.Mean() * 1e3;
    } else if (m.name == "wal.batch_size") {
      t.layer["wal.mean_batch"] = m.histogram.Mean();
    }
  }
}

/// What the workload knows at the end of a trial's timed phase.
struct TrialFacts {
  uint32_t items = 0;
  uint64_t attempts = 0;  ///< transactions or sessions the benchmark issued
  uint64_t retries = 0;   ///< re-runs after a retryable failure
  uint64_t commits = 0;   ///< acknowledged
  std::function<int64_t(uint32_t)> expected;  ///< model value of item i
  bool conserved = false;  ///< the total balance must stay items*kInitial
};

/// The checks and per-layer figures every workload shares: engine
/// counters against the benchmark's own counts, the checker's verdict, a
/// full read of the store against the model, and a timed quiescent
/// version-GC pass.
void FinishTrial(Database& db, const Pass& pass, const TrialFacts& f,
                 SpanLog* spans, Verdict& v, Trial& t) {
  const std::string where = std::string(pass.name) + ": ";
  const critique::EngineStats st = db.stats();
  if (st.commits + st.total_aborts() != f.attempts + f.retries) {
    v.Fail(where + "engine commits+aborts " +
           std::to_string(st.commits + st.total_aborts()) +
           " != attempts+retries " + std::to_string(f.attempts + f.retries));
  }
  const double n = static_cast<double>(f.attempts);
  t.layer["db.retries_per_txn"] = Ratio(f.retries, n);
  t.layer["engine.fcw_aborts_per_txn"] = Ratio(st.fcw_aborts, n);
  t.layer["engine.ssi_aborts_per_txn"] = Ratio(st.ssi_aborts, n);
  t.layer["engine.deadlock_aborts_per_txn"] = Ratio(st.deadlock_aborts, n);
  t.layer["lock.waits_per_txn"] =
      Ratio(RegistryValue(db, "engine.lock.blocked"), n);
  t.layer["engine.history_actions_per_txn"] =
      Ratio(db.history().size(), f.commits);
  t.layer["storage.versions_per_item"] = Ratio(db.VersionCount(), f.items);
  t.layer["storage.max_chain"] =
      static_cast<double>(db.engine().MaxVersionChainLength());

  if (pass.online_check) {
    const critique::check::CheckerReport r = db.checker()->Report();
    if (r.commits_certified != f.commits || r.violations != 0) {
      v.Fail(where + "checker certified " +
             std::to_string(r.commits_certified) + " of " +
             std::to_string(f.commits) + " commits, " +
             std::to_string(r.violations) + " violations");
    }
    t.layer["check.peak_live_nodes"] = static_cast<double>(r.peak_live_nodes);
    t.layer["check.edges_per_commit"] = Ratio(r.edges_added, f.commits);
  }

  // The store is quiescent, so reading it in chunks sees one state.  One
  // transaction over a large store would pay the locking engine's cost of
  // a transaction holding very many read locks.
  const auto& names = ItemNames(f.items);
  int64_t total = 0;
  for (uint32_t lo = 0; lo < f.items; lo += kReadChunk) {
    const uint32_t hi = std::min(f.items, lo + kReadChunk);
    int64_t chunk = 0;
    const Status s = db.Execute([&](Transaction& x) {
      chunk = 0;
      for (uint32_t i = lo; i < hi; ++i) {
        int64_t got = 0;
        const Status rs = ReadChecked(x, names[i], f.expected(i), nullptr, 0,
                                      0, v, &got);
        if (!rs.ok()) return rs;
        chunk += got;
      }
      return Status::OK();
    });
    if (!s.ok()) v.Fail(where + "final read: " + s.ToString());
    total += chunk;
  }
  if (f.conserved && total != int64_t{f.items} * kInitial) {
    v.Fail(where + "total balance " + std::to_string(total));
  }

  const int64_t gc0 = NowNs();
  {
    SpanScope sp(spans, kSpanGc, 0, 0);
    db.GarbageCollectVersions();
  }
  t.layer["storage.gc_pass_ns"] = static_cast<double>(NowNs() - gc0);
  // With no transaction open, one pass leaves each item its newest
  // version only; the locking engine keeps no versions at all.
  const size_t versions = db.VersionCount();
  const size_t want =
      pass.level == critique::IsolationLevel::kSerializable ? 0 : f.items;
  if (versions != want) {
    v.Fail(where + std::to_string(versions) + " versions after GC, want " +
           std::to_string(want));
  }
}

// --------------------------------------------------------------------------
// oltp-1c: one client, Zipf transfers and reads.
// --------------------------------------------------------------------------

struct OltpConfig {
  uint32_t items;      ///< power of two
  double theta;        ///< Zipf skew of key choice
  double read_share;   ///< share of read-only transactions
  uint32_t txns;       ///< per trial
};

struct OltpOp {
  bool transfer;
  uint32_t key[4];  ///< transfer: key[0] -> key[1]; read: all four
  int64_t amount;
};

class OltpWorkload : public Workload {
 public:
  OltpWorkload(const OltpConfig& cfg, const Env& env)
      : cfg_(cfg), env_(env), names_(ItemNames(cfg.items)),
        zipf_(cfg.items, cfg.theta) {}

  void NewRound(uint64_t seed) override {
    Rng rng(seed);
    ops_.resize(cfg_.txns);
    for (OltpOp& op : ops_) {
      op.transfer = rng.Unit() >= cfg_.read_share;
      for (uint32_t& k : op.key) k = zipf_.Sample(rng);
      while (op.key[1] == op.key[0]) op.key[1] = zipf_.Sample(rng);
      op.amount = 1 + rng.Below(100);
    }
  }

  Trial Run(const Pass& pass, SpanLog* spans) override {
    Verdict& v = *env_.verdict;
    Database db(OptionsFor(pass, VersionGcMode::kRetainAll));
    LoadItems(db, cfg_.items, v);
    model_.assign(cfg_.items, kInitial);
    const uint32_t n = cfg_.txns;

    Trial t;
    t.latency_ns.reserve(n);
    uint64_t traced_retries = 0;
    MarkSetupDone();
    const uint64_t heap0 = HeapBytesInUse();
    const int64_t start = NowNs();
    for (uint32_t i = 0; i < n; ++i) {
      const OltpOp& op = ops_[i];
      const int64_t t0 = NowNs();
      const Status s = RunTxn(
          db, spans, i + 1, &traced_retries,
          [&](Transaction& x, uint64_t parent) -> Status {
            int64_t got[4];
            const int reads = op.transfer ? 2 : 4;
            for (int r = 0; r < reads; ++r) {
              const Status rs =
                  ReadChecked(x, names_[op.key[r]], model_[op.key[r]], spans,
                              parent, i + 1, v, &got[r]);
              if (!rs.ok()) return rs;
            }
            if (!op.transfer) return Status::OK();
            const Status ws = Write(x, names_[op.key[0]], got[0] - op.amount,
                                    spans, parent, i + 1);
            if (!ws.ok()) return ws;
            return Write(x, names_[op.key[1]], got[1] + op.amount, spans,
                         parent, i + 1);
          });
      t.latency_ns.push_back(static_cast<uint64_t>(NowNs() - t0));
      if (!s.ok()) {
        ++t.failed;
        continue;
      }
      ++t.commits;
      if (op.transfer) {
        model_[op.key[0]] -= op.amount;
        model_[op.key[1]] += op.amount;
      }
    }
    t.seconds = static_cast<double>(NowNs() - start) * 1e-9;
    t.attempted = n;
    t.layer["mem.bytes_per_txn"] =
        Ratio(static_cast<double>(HeapBytesInUse()) -
                  static_cast<double>(heap0),
              t.commits);

    TrialFacts f;
    f.items = cfg_.items;
    f.attempts = n;
    f.retries = spans != nullptr ? traced_retries : db.execute_retries();
    f.commits = t.commits;
    f.expected = [this](uint32_t i) { return model_[i]; };
    f.conserved = true;
    FinishTrial(db, pass, f, spans, v, t);
    return t;
  }

 private:
  OltpConfig cfg_;
  Env env_;
  const std::vector<std::string>& names_;
  Zipf zipf_;
  std::vector<OltpOp> ops_;
  std::vector<int64_t> model_;  ///< balance per item, updated on ack only
};

// --------------------------------------------------------------------------
// disjoint-2c: two clients, each incrementing items of its own slice.
// --------------------------------------------------------------------------

struct DisjointConfig {
  uint32_t items;            ///< split evenly between the two clients
  uint32_t txns_per_client;  ///< per trial
  /// Zero: no log.  Otherwise every commit waits for a group-commit sync
  /// on a simulated device of this latency.
  std::chrono::microseconds sync_latency;
};

class DisjointWorkload : public Workload {
 public:
  static constexpr int kClients = 2;

  DisjointWorkload(const DisjointConfig& cfg, const Env& env)
      : cfg_(cfg), env_(env), names_(ItemNames(cfg.items)) {}

  void NewRound(uint64_t seed) override {
    const uint32_t slice = cfg_.items / kClients;
    for (int c = 0; c < kClients; ++c) {
      Rng rng(Mix(seed) + static_cast<uint64_t>(c));
      auto& keys = keys_[c];
      keys.resize(cfg_.txns_per_client);
      for (auto& k : keys) {
        k.first = static_cast<uint32_t>(c) * slice + rng.Below(slice);
        do {
          k.second = static_cast<uint32_t>(c) * slice + rng.Below(slice);
        } while (k.second == k.first);
      }
    }
  }

  Trial Run(const Pass& pass, SpanLog* spans) override {
    DbOptions opts = OptionsFor(pass, VersionGcMode::kWatermark);
    opts.mode = critique::ConcurrencyMode::kBlocking;
    const std::string wal = ScratchPath(env_, "disjoint", pass) + ".wal";
    if (cfg_.sync_latency.count() > 0) {
      UseSimulatedWal(opts, wal, cfg_.sync_latency);
    }
    Trial t = RunClients(pass, opts, spans);
    std::error_code ec;
    std::filesystem::remove(wal, ec);
    return t;
  }

 private:
  Trial RunClients(const Pass& pass, const DbOptions& opts, SpanLog* spans) {
    Verdict& v = *env_.verdict;
    Database db(opts);
    LoadItems(db, cfg_.items, v);
    // Per-item tally of acknowledged increments; each client touches only
    // the items of its own slice.
    tally_.assign(cfg_.items, 0);

    struct Client {
      std::vector<uint64_t> latency_ns;
      uint64_t commits = 0, failed = 0, traced_retries = 0;
    } clients[kClients];
    std::mutex mu;
    std::condition_variable cv;
    bool go = false;
    auto client = [&](int c) {
      Client& me = clients[c];
      me.latency_ns.reserve(cfg_.txns_per_client);
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return go; });
      }
      for (uint32_t i = 0; i < cfg_.txns_per_client; ++i) {
        const auto [a, b] = keys_[c][i];
        const uint64_t txn = (static_cast<uint64_t>(c) << 32) | (i + 1);
        const int64_t t0 = NowNs();
        const Status s = RunTxn(
            db, spans, txn, &me.traced_retries,
            [&](Transaction& x, uint64_t parent) -> Status {
              for (uint32_t k : {a, b}) {
                int64_t got = 0;
                Status rs = ReadChecked(x, names_[k], kInitial + tally_[k],
                                        spans, parent, txn, v, &got);
                if (!rs.ok()) return rs;
                rs = Write(x, names_[k], got + 1, spans, parent, txn);
                if (!rs.ok()) return rs;
              }
              return Status::OK();
            });
        me.latency_ns.push_back(static_cast<uint64_t>(NowNs() - t0));
        if (!s.ok()) {
          ++me.failed;
          continue;
        }
        ++me.commits;
        ++tally_[a];
        ++tally_[b];
      }
    };

    MarkSetupDone();
    const uint64_t heap0 = HeapBytesInUse();
    std::thread threads[kClients];
    for (int c = 0; c < kClients; ++c) threads[c] = std::thread(client, c);
    const int64_t start = NowNs();
    {
      std::lock_guard<std::mutex> lk(mu);
      go = true;
    }
    cv.notify_all();
    for (auto& th : threads) th.join();

    Trial t;
    t.seconds = static_cast<double>(NowNs() - start) * 1e-9;
    uint64_t traced_retries = 0;
    for (Client& c : clients) {
      t.commits += c.commits;
      t.failed += c.failed;
      traced_retries += c.traced_retries;
      t.latency_ns.insert(t.latency_ns.end(), c.latency_ns.begin(),
                          c.latency_ns.end());
    }
    t.attempted = uint64_t{kClients} * cfg_.txns_per_client;
    t.layer["mem.bytes_per_txn"] =
        Ratio(static_cast<double>(HeapBytesInUse()) -
                  static_cast<double>(heap0),
              t.commits);
    if (db.wal() != nullptr) WalLayer(db, t.commits, t);

    TrialFacts f;
    f.items = cfg_.items;
    f.attempts = t.attempted;
    f.retries = spans != nullptr ? traced_retries : db.execute_retries();
    f.commits = t.commits;
    f.expected = [this](uint32_t i) { return kInitial + tally_[i]; };
    FinishTrial(db, pass, f, spans, v, t);
    return t;
  }

  DisjointConfig cfg_;
  Env env_;
  const std::vector<std::string>& names_;
  std::vector<std::pair<uint32_t, uint32_t>> keys_[kClients];
  std::vector<int64_t> tally_;
};

// --------------------------------------------------------------------------
// durable-sessions: a SessionExecutor over a group-commit WAL.
// --------------------------------------------------------------------------

struct DurableConfig {
  uint32_t slots;          ///< sessions in flight; each owns its keys
  uint32_t keys_per_slot;
  uint32_t sessions;       ///< per trial
  int workers;
  std::chrono::microseconds sync_latency;
};

class DurableWorkload : public Workload {
 public:
  DurableWorkload(const DurableConfig& cfg, const Env& env)
      : cfg_(cfg),
        env_(env),
        names_(ItemNames(cfg.slots * cfg.keys_per_slot)) {}

  void NewRound(uint64_t seed) override {
    // Session j of a slot increments two distinct keys of that slot.
    Rng rng(seed);
    picks_.resize(cfg_.sessions);
    for (auto& p : picks_) {
      p.first = rng.Below(cfg_.keys_per_slot);
      p.second = (p.first + 1 + rng.Below(cfg_.keys_per_slot - 1)) %
                 cfg_.keys_per_slot;
    }
  }

  Trial Run(const Pass& pass, SpanLog* spans) override {
    Verdict& v = *env_.verdict;
    const std::string where = std::string(pass.name) + ": ";
    const uint32_t items = cfg_.slots * cfg_.keys_per_slot;
    namespace fs = std::filesystem;
    const std::string base = ScratchPath(env_, "durable", pass);
    const std::string wal = base + ".wal";
    const std::string copy = base + ".copy.wal";

    DbOptions opts = OptionsFor(pass, VersionGcMode::kWatermark);
    UseSimulatedWal(opts, wal, cfg_.sync_latency);

    Trial t;
    tally_.assign(items, 0);
    {
      Database db(opts);
      LoadItems(db, items, v);
      MarkSetupDone();
      critique::SessionExecutorOptions eo;
      eo.workers = cfg_.workers;
      critique::SessionExecutor ex(db, eo);

      std::mutex mu;  // guards issued, t.latency_ns, t.commits, tally_
      uint32_t issued = 0;
      t.latency_ns.reserve(cfg_.sessions);
      // Submits session `j` on `slot`; its completion submits the slot's
      // next session, so each slot is a closed-loop client.
      std::function<void(uint32_t, uint32_t)> submit =
          [&](uint32_t slot, uint32_t j) {
            const uint32_t ka = slot * cfg_.keys_per_slot + picks_[j].first;
            const uint32_t kb = slot * cfg_.keys_per_slot + picks_[j].second;
            const uint64_t session_id = spans ? spans->NewId() : 0;
            const int64_t submitted = NowNs();
            auto step = [&, ka, kb, j, session_id](Transaction& x,
                                                   uint64_t k) -> Status {
              SpanScope sp(spans, kSpanStep, session_id, j + 1);
              // A slot's keys change only in that slot's completion
              // callback, which runs before its next session is submitted.
              const uint32_t key = k == 0 ? ka : kb;
              int64_t got = 0;
              const Status rs = ReadChecked(x, names_[key],
                                            kInitial + tally_[key], nullptr,
                                            0, 0, v, &got);
              if (!rs.ok()) return rs;
              return x.Put(names_[key], Value(got + 1));
            };
            ex.Submit(2, step, [&, ka, kb, j, slot, session_id, submitted](
                                   uint64_t, const Status& s) {
              const int64_t done = NowNs();
              if (spans != nullptr) {
                spans->Record(Span{session_id, 0, j + 1, kSpanSession,
                                   submitted, done});
              }
              uint32_t next = 0;
              {
                std::lock_guard<std::mutex> lk(mu);
                t.latency_ns.push_back(static_cast<uint64_t>(done - submitted));
                if (s.ok()) {
                  ++t.commits;
                  ++tally_[ka];
                  ++tally_[kb];
                } else {
                  ++t.failed;
                }
                next = issued < cfg_.sessions ? issued++ : cfg_.sessions;
              }
              if (next < cfg_.sessions) submit(slot, next);
            });
          };

      const uint64_t heap0 = HeapBytesInUse();
      const int64_t start = NowNs();
      {
        std::lock_guard<std::mutex> lk(mu);
        issued = std::min(cfg_.slots, cfg_.sessions);
      }
      for (uint32_t s = 0; s < std::min(cfg_.slots, cfg_.sessions); ++s) {
        submit(s, s);
      }
      ex.Drain();
      t.seconds = static_cast<double>(NowNs() - start) * 1e-9;
      t.attempted = cfg_.sessions;
      t.layer["mem.bytes_per_txn"] =
          Ratio(static_cast<double>(HeapBytesInUse()) -
                    static_cast<double>(heap0),
                t.commits);

      const critique::SessionExecutorStats es = ex.stats();
      if (es.committed != t.commits || es.failed != t.failed) {
        v.Fail(where + "executor stats " + es.ToString());
      }
      t.layer["sched.steals_per_txn"] = Ratio(es.steals, t.attempted);
      WalLayer(db, t.commits, t);

      // The log as a crash right now would leave it: every acknowledged
      // commit has been synced, so the copy must hold all of them.
      std::error_code ec;
      fs::copy_file(wal, copy, fs::copy_options::overwrite_existing, ec);
      if (ec) v.Fail(where + "copy log: " + ec.message());
      t.layer["wal.bytes_per_commit"] =
          Ratio(static_cast<double>(fs::file_size(copy, ec)), t.commits);

      TrialFacts f;
      f.items = items;
      f.attempts = t.attempted;
      f.retries = es.retries;
      f.commits = t.commits;
      f.expected = [this](uint32_t i) { return kInitial + tally_[i]; };
      FinishTrial(db, pass, f, spans, v, t);
    }

    // Restart from the copy: every key must hold exactly its acknowledged
    // increments, none lost and none invented.
    DbOptions ro(pass.level);
    ro.wal_path = copy;
    const int64_t r0 = NowNs();
    critique::Result<Database> rec = [&] {
      SpanScope sp(spans, kSpanRecover, 0, 0);
      return Database::Recover(ro);
    }();
    const double recover_s = static_cast<double>(NowNs() - r0) * 1e-9;
    t.layer["recover.s"] = recover_s;
    if (!rec.ok()) {
      v.Fail(where + "recover: " + rec.status().ToString());
    } else {
      t.layer["recover.records_per_s"] =
          Ratio(rec->wal_recovery().records, recover_s);
      const Status s = rec->Execute([&](Transaction& x) {
        for (uint32_t i = 0; i < items; ++i) {
          int64_t got = 0;
          const Status rs = ReadChecked(x, names_[i], kInitial + tally_[i],
                                        nullptr, 0, 0, v, &got);
          if (!rs.ok()) return rs;
        }
        return Status::OK();
      });
      if (!s.ok()) v.Fail(where + "read after recovery: " + s.ToString());
    }
    std::error_code ec;
    fs::remove(wal, ec);
    fs::remove(copy, ec);
    return t;
  }

 private:
  DurableConfig cfg_;
  Env env_;
  const std::vector<std::string>& names_;
  std::vector<std::pair<uint32_t, uint32_t>> picks_;
  std::vector<int64_t> tally_;  ///< acknowledged increments per key
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "oltp-1c", "disjoint-2c", "disjoint-2c-wal", "durable-sessions"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Env& env) {
  if (name == "oltp-1c") {
    // 4,096 items fit a core's 2 MiB L2 together with their version
    // chains; kRetainAll is the program default.  Short trials keep what a
    // trial allocates near that size too, so a neighbour's use of the
    // shared L3 moves the figures less.  SSI slows with every transaction
    // ever begun under kRetainAll; 2,000 keeps its trials short as well.
    return std::make_unique<OltpWorkload>(OltpConfig{4096, 0.6, 0.5, 2000},
                                          env);
  }
  if (name == "disjoint-2c") {
    return std::make_unique<DisjointWorkload>(
        DisjointConfig{4096, 2000, std::chrono::microseconds(0)}, env);
  }
  if (name == "disjoint-2c-wal") {
    // The same clients, each commit waiting for its sync: the device's
    // latency dominates a transaction, so the host's slow spells move the
    // figures far less than in disjoint-2c.
    return std::make_unique<DisjointWorkload>(
        DisjointConfig{4096, 1000, std::chrono::microseconds(100)}, env);
  }
  if (name == "durable-sessions") {
    return std::make_unique<DurableWorkload>(
        DurableConfig{64, 64, 3000, 2, std::chrono::microseconds(100)}, env);
  }
  return nullptr;
}

}  // namespace perfbench
