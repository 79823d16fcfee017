// rwlbench — the rwl benchmark program (run through perfbench/run.py).
//
//   rwlbench --workload NAME --seed N --seconds S --trace 0|1
//            [--clients C] [--workers W] [--rate R] [--scratch DIR]
//            [--commit REV]
//   rwlbench --self-test
//
// Prints the run's metadata, the benchmark's self-test, property shares,
// every end-to-end metric by name and unit (and, with --trace 1, the
// per-layer metrics), then a final `RESULT {...}` line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/src/workloads.h"
#include "src/service/protocol.h"

namespace {

using perfbench::Config;
using perfbench::Metric;
using perfbench::Report;

int Usage() {
  std::fprintf(stderr,
               "usage: rwlbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--clients C] [--workers W] [--rate R]\n"
               "                [--scratch DIR] [--commit REV]\n"
               "       rwlbench --self-test\n");
  return 2;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name +
           "\":{\"value\":" + Number(metrics[i].value) + ",\"unit\":\"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string commit = "unknown";
  bool self_test_only = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() {
      ++i;
      return std::string(value);
    };
    if (arg == "--self-test") {
      self_test_only = true;
    } else if (value == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      config.workload = take();
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(take().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(take().c_str());
    } else if (arg == "--trace") {
      config.trace = take() == "1";
    } else if (arg == "--clients") {
      config.clients = std::atoi(take().c_str());
    } else if (arg == "--workers") {
      config.workers = std::atoi(take().c_str());
    } else if (arg == "--rate") {
      config.rate = std::atof(take().c_str());
    } else if (arg == "--scratch") {
      config.scratch = take();
    } else if (arg == "--commit") {
      commit = take();
    } else {
      return Usage();
    }
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  if (!self_test_only &&
      (!have_workload || config.seconds <= 0.0 || config.clients < 1 ||
       config.clients > static_cast<int>(nproc) || config.workers < 1 ||
       config.rate <= 0.0)) {
    return Usage();
  }

  std::printf(
      "meta {\"commit\":\"%s\",\"cpu\":\"%s\",\"nproc\":%u,"
      "\"build_type\":\"%s\",\"compiler\":\"%s\",\"workload\":\"%s\","
      "\"seed\":%llu,\"seconds\":%s,\"trace\":%d,\"clients\":%d,"
      "\"workers\":%d,\"rate\":%s}\n",
      rwl::service::JsonEscape(commit).c_str(),
      rwl::service::JsonEscape(CpuModel()).c_str(), nproc, RWLBENCH_BUILD_TYPE,
      RWLBENCH_COMPILER, config.workload.c_str(),
      static_cast<unsigned long long>(config.seed),
      Number(config.seconds).c_str(), config.trace ? 1 : 0, config.clients,
      config.workers, Number(config.rate).c_str());
  try {
    const std::string self_test = perfbench::SelfTest(config);
    if (!self_test.empty()) {
      std::fprintf(stderr, "rwlbench: self-test failed: %s\n",
                   self_test.c_str());
      return 1;
    }
    std::printf("self-test ok: injected wrong answers and a refused request "
                "count as failures; input digests follow the seed; an "
                "uncovered gap in a request fails the trace check\n");
    if (self_test_only) return 0;

    const uint64_t digest = perfbench::InputDigest(config);
    std::printf("input digest %016llx\n",
                static_cast<unsigned long long>(digest));
    std::fflush(stdout);
    const Report report = perfbench::RunWorkload(config);
    for (const std::string& line : report.lines) {
      std::printf("%s\n", line.c_str());
    }
    for (const Metric& metric : report.end_to_end) {
      std::printf("metric %-24s %-14s %s\n", metric.name.c_str(),
                  Number(metric.value).c_str(), metric.unit.c_str());
    }
    for (const Metric& metric : report.layers) {
      std::printf("layer  %-36s %-14s %s\n", metric.name.c_str(),
                  Number(metric.value).c_str(), metric.unit.c_str());
    }
    const bool correct = report.checks_ok && report.failed == 0;
    std::printf("RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"end_to_end\":%s,\"layers\":%s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                MetricsJson(report.end_to_end).c_str(),
                MetricsJson(report.layers).c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rwlbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
