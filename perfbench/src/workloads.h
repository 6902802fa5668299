// The four workloads.  Each drives the library only through its public
// API (Database, Transaction, SessionExecutor, Database::Recover) and
// checks every output against the benchmark's own model.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Env {
  std::string out_dir;  ///< scratch files (WAL copies) live here
  Verdict* verdict;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Makes the inputs of one round from `seed`; every pass of the round
  /// runs the same inputs.
  virtual void NewRound(uint64_t seed) = 0;
  /// Runs one trial of `pass` on a fresh database and checks it.  With
  /// `spans` set, records spans around each call into the library.
  virtual Trial Run(const Pass& pass, SpanLog* spans) = 0;
};

const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, const Env& env);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
