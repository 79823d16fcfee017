// The rwl benchmark's workloads.  Each drives an in-process KbService the
// way rwld does for one connection per client: ParseRequest on an NDJSON
// line, the KbService call with a per-client SessionState (read-your-writes),
// and QueryResponse / MutationResponse to encode the reply.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int clients = 1;         // query client threads; durable_mixed adds a writer
  int workers = 1;         // scheduler workers (fixed, not detected)
  double rate = 24000.0;   // durable_mixed offered load, ops/s
  std::string scratch = ".bench_build/perfbench";  // WAL dirs, traces
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Checks beyond single answers (WAL recovery, trace consistency).
  bool checks_ok = true;
  std::vector<Metric> end_to_end;  // every end-to-end metric that applies
  std::vector<Metric> layers;      // traced runs only
  std::vector<std::string> lines;  // property shares and per-example rows
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload; throws std::runtime_error when it cannot run at all
// (a set-up step the service refuses).
Report RunWorkload(const Config& config);

// Digest of every input a workload would send for `seed`.
uint64_t InputDigest(const Config& config);

// The benchmark's checks applied to injected faults: a wrong answer and a
// refused request must both count as failures, and input digests must
// follow the seed.  Returns an empty string on success.
std::string SelfTest(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
