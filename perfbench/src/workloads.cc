#include "perfbench/src/workloads.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench/src/checks.h"
#include "perfbench/src/ledger.h"
#include "src/core/planner.h"
#include "src/fixtures/paper_kbs.h"
#include "src/logic/parser.h"
#include "src/logic/printer.h"
#include "src/logic/transform.h"
#include "src/service/catalog.h"
#include "src/service/protocol.h"
#include "src/service/service.h"
#include "src/service/wal.h"
#include "src/workload/generators.h"

namespace perfbench {
namespace {

using rwl::Answer;
using rwl::InferenceOptions;
using rwl::service::KbService;
using rwl::service::Request;
using rwl::service::ServiceOptions;

// The planner's strategies (src/core/inference.cc), in registry order.
constexpr const char* kStrategies[] = {
    "fixed-n", "symbolic",          "profile", "maxent", "exact", "montecarlo",
    "epsilon_semantics", "klm", "gmp90", "evidence", "calibrated"};
constexpr int kNumStrategies = sizeof(kStrategies) / sizeof(kStrategies[0]);

// The fresh individual durable_mixed's toggle facts are about; declared at
// LOAD so a toggle never extends the vocabulary (rwlload's RwlLoadC).
constexpr const char* kMarkerConstant = "BenchC";

// cold_generated: never-seen (KB, query) pairs per round, and the fewest
// rounds a run makes.
constexpr int kPairs = 1000;
constexpr int kMinRounds = 3;
// durable_mixed: one op in this many is an ASSERT/RETRACT toggle.
constexpr uint64_t kMutateEvery = 240;
// Service set-ups for the paper tenants, each a service construction and a
// LOAD of every tenant (a millisecond or tens of them), run in bursts of at
// least kBurstSeconds with pauses between them.  The host's speed drifts on
// a scale of a few hundred milliseconds, so setup_s, the median over the
// bursts' medians, samples it over seconds rather than at one instant.
constexpr int kSetupBursts = 20;
constexpr double kBurstSeconds = 0.02;
constexpr auto kBurstPause = std::chrono::milliseconds(100);

// rwlload's capped sweep (N <= 32).
InferenceOptions CappedSweep() {
  InferenceOptions options;
  options.tolerances = rwl::semantics::ToleranceVector::Uniform(0.04);
  options.limit.domain_sizes = {8, 16, 32};
  return options;
}

// bench_planner's short sweep schedule and work cap.
InferenceOptions ShortSweep() {
  InferenceOptions options;
  options.tolerances = rwl::semantics::ToleranceVector::Uniform(0.05);
  options.limit.domain_sizes = {8, 12, 16};
  options.limit.tolerance_scales = {1.0, 0.5};
  options.work_budget = 3e7;
  return options;
}

double SchedulePoints(const InferenceOptions& options) {
  return static_cast<double>(options.limit.domain_sizes.size() *
                             options.limit.tolerance_scales.size());
}

// One tenant KB and the query asked of it.
struct Tenant {
  std::string name;
  std::string kb_text;
  std::vector<std::string> declare;
  std::string query;
  int fixed_n = 0;
  std::string family;  // generator family (cold_generated)
  const rwl::fixtures::PaperExample* example = nullptr;
  // durable_mixed: the toggled fact ("" = never mutated).
  std::string marker;
  // Reference answers without / with the marker asserted, and their
  // encoded bodies.
  Answer expected[2];
  std::string body[2];
};

std::string LoadLine(int64_t id, const Tenant& tenant) {
  std::string line = "{\"id\":" + std::to_string(id) +
                     ",\"op\":\"LOAD\",\"kb\":\"" +
                     rwl::service::JsonEscape(tenant.name) + "\",\"text\":\"" +
                     rwl::service::JsonEscape(tenant.kb_text) + "\"";
  if (!tenant.declare.empty()) {
    line += ",\"declare\":[";
    for (size_t i = 0; i < tenant.declare.size(); ++i) {
      if (i > 0) line += ",";
      line += "\"" + rwl::service::JsonEscape(tenant.declare[i]) + "\"";
    }
    line += "]";
  }
  return line + "}";
}

// Everything after `{"id":N,` of a QUERY line.
std::string QuerySuffix(const Tenant& tenant) {
  std::string suffix = "\"op\":\"QUERY\",\"kb\":\"" +
                       rwl::service::JsonEscape(tenant.name) + "\",\"q\":\"" +
                       rwl::service::JsonEscape(tenant.query) + "\"";
  if (tenant.fixed_n > 0) {
    suffix += ",\"fixed_n\":" + std::to_string(tenant.fixed_n);
  }
  return suffix + "}";
}

std::string MutationSuffix(const Tenant& tenant, bool assert_op) {
  return std::string("\"op\":\"") + (assert_op ? "ASSERT" : "RETRACT") +
         "\",\"kb\":\"" + rwl::service::JsonEscape(tenant.name) +
         "\",\"text\":\"" + rwl::service::JsonEscape(tenant.marker) + "\"}";
}

std::string WithId(int64_t id, const std::string& suffix) {
  return "{\"id\":" + std::to_string(id) + "," + suffix;
}

// Per-answer plan statistics (from Answer.plan).
struct PlanTally {
  uint64_t answers = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t undefined = 0;
  double planning_ms = 0.0;
  double total_ms = 0.0;
  uint64_t ran[kNumStrategies] = {};
  uint64_t finals[kNumStrategies] = {};
  double ms[kNumStrategies] = {};
  double points[kNumStrategies] = {};  // sweep points of the runs

  void Add(const Answer& answer, double schedule_points) {
    ++answers;
    if (answer.status == Answer::Status::kUndefined) ++undefined;
    if (answer.plan == nullptr) return;
    const rwl::PlanTrace& plan = *answer.plan;
    if (plan.from_cache) ++plan_cache_hits;
    planning_ms += plan.planning_ms;
    total_ms += plan.total_ms;
    for (const rwl::PlanStep& step : plan.steps) {
      if (step.action != rwl::PlanStep::Action::kRan) continue;
      for (int s = 0; s < kNumStrategies; ++s) {
        if (step.strategy != kStrategies[s]) continue;
        ++ran[s];
        ms[s] += step.observed_ms;
        const bool final = step.outcome == "final";
        if (final) ++finals[s];
        points[s] += final && !answer.series.empty()
                         ? static_cast<double>(answer.series.size())
                         : schedule_points;
        break;
      }
    }
  }

  void Merge(const PlanTally& other) {
    answers += other.answers;
    plan_cache_hits += other.plan_cache_hits;
    undefined += other.undefined;
    planning_ms += other.planning_ms;
    total_ms += other.total_ms;
    for (int s = 0; s < kNumStrategies; ++s) {
      ran[s] += other.ran[s];
      finals[s] += other.finals[s];
      ms[s] += other.ms[s];
      points[s] += other.points[s];
    }
  }
};

// One client connection: rwld's per-connection session plus the client's
// tracer, latencies and tallies.  Owned by one thread.
struct Client {
  explicit Client(bool trace) : tracer(trace) {}
  rwl::service::SessionState session;
  Tracer tracer;
  int64_t next_id = 1;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> query_us;
  std::vector<int64_t> query_end_ns;  // completion times, for windows
  std::vector<double> mutation_us;
  std::vector<double> lag_us;        // open loop: start minus due time
  std::vector<double> due_us;        // open loop: completion minus due time
  std::vector<double> traced_us;     // traced requests (overhead)
  std::vector<double> untraced_us;   // their untraced neighbours
  std::vector<double> admit_us;      // QueryResult.latency_ms
  std::vector<double> hop_us;        // probe decomposition
  PlanTally plans;

  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  // Allocates and touches the sample buffers before the timed interval, so
  // neither page faults nor regrowth land in it (and peak RSS does not
  // depend on how far a buffer happened to grow).
  void Prefault(size_t samples, bool open_loop) {
    query_us.assign(samples, 0.0);
    query_us.clear();
    query_end_ns.assign(samples, 0);
    query_end_ns.clear();
    if (open_loop) {
      lag_us.assign(samples, 0.0);
      lag_us.clear();
      due_us.assign(samples, 0.0);
      due_us.clear();
    }
  }
};

// The outcome of serving one request line.
struct Served {
  Request request;
  bool decoded = false;
  KbService::QueryResult query;
  KbService::MutationResult mutation;
  std::string response;
  uint64_t floor = 0;  // the read-your-writes floor the query ran under
  int query_span = -1;
};

// Serves one NDJSON line the way rwld's connection handler does.
void Serve(KbService& service, const std::string& line, Client* client,
           uint64_t trace_id, Served* out) {
  Tracer& tracer = client->tracer;
  const int root = tracer.Begin(trace_id, Layer::kRequest, -1);
  int span = tracer.Begin(trace_id, Layer::kDecode, root);
  std::string error;
  out->decoded = rwl::service::ParseRequest(line, &out->request, &error);
  tracer.End(span);
  Request& request = out->request;
  if (!out->decoded) {
    span = tracer.Begin(trace_id, Layer::kEncode, root);
    out->response = rwl::service::ErrorResponse(request.id, error);
    tracer.End(span);
    tracer.End(root);
    return;
  }
  switch (request.op) {
    case Request::Op::kQuery:
      request.options.min_version =
          std::max(request.options.min_version,
                   client->session.AckedVersion(request.kb));
      out->floor = request.options.min_version;
      out->query_span = span = tracer.Begin(trace_id, Layer::kQuery, root);
      out->query = service.Query(request.kb, request.query, request.options);
      tracer.End(span);
      span = tracer.Begin(trace_id, Layer::kEncode, root);
      out->response = rwl::service::QueryResponse(request.id, out->query);
      tracer.End(span);
      break;
    case Request::Op::kLoad:
    case Request::Op::kAssert:
    case Request::Op::kRetract:
      span = tracer.Begin(trace_id, Layer::kMutation, root);
      out->mutation =
          request.op == Request::Op::kLoad
              ? service.Load(request.kb, request.text, request.declare)
          : request.op == Request::Op::kAssert
              ? service.Assert(request.kb, request.text)
              : service.Retract(request.kb, request.text);
      tracer.End(span);
      if (out->mutation.ok) {
        client->session.RecordAck(request.kb, out->mutation.version);
      }
      span = tracer.Begin(trace_id, Layer::kEncode, root);
      out->response = rwl::service::MutationResponse(request.id, request.kb,
                                                     out->mutation);
      tracer.End(span);
      break;
    default:
      out->response = rwl::service::ErrorResponse(request.id, "unsupported");
      break;
  }
  tracer.End(root);
}

// Serves one line and times it (untraced clock reads around the call).
double ServeTimed(KbService& service, const std::string& line, Client* client,
                  uint64_t trace_id, Served* out) {
  const int64_t t0 = NowNs();
  Serve(service, line, client, trace_id, out);
  return static_cast<double>(NowNs() - t0) / 1e3;
}

// The probe after a traced query: parse, pin and a bare AnswerOnSnapshot
// on the same pinned snapshot.  service.hop_us is what Query costs beyond
// them: admission, the scheduler hand-off and back, RecordQuery.
void Probe(KbService& service, const Served& served, Client* client,
           uint64_t trace_id) {
  if (!served.query.ok || served.query.snapshot == nullptr) return;
  Tracer& tracer = client->tracer;
  const int probe = tracer.Begin(trace_id, Layer::kProbe, -1);
  const int parse = tracer.Begin(trace_id, Layer::kParse, probe);
  rwl::logic::ParseResult parsed =
      rwl::logic::ParseFormula(served.request.query);
  tracer.End(parse);
  const int pin = tracer.Begin(trace_id, Layer::kPin, probe);
  std::shared_ptr<const rwl::service::KbSnapshot> pinned =
      service.Snapshot(served.request.kb);
  tracer.End(pin);
  const int answer = tracer.Begin(trace_id, Layer::kAnswer, probe);
  if (parsed.ok()) {
    (void)rwl::service::AnswerOnSnapshot(
        *served.query.snapshot, parsed.formula,
        service.EffectiveOptions(served.request.options));
  }
  tracer.End(answer);
  tracer.End(probe);
  client->hop_us.push_back(tracer.DurationUs(served.query_span) -
                           tracer.DurationUs(parse) - tracer.DurationUs(pin) -
                           tracer.DurationUs(answer));
}

// Checks one query response against the tenant's reference for `state`.
bool QueryCorrect(const Served& served, const Tenant& tenant, int state) {
  const KbService::QueryResult& result = served.query;
  return result.ok && result.snapshot != nullptr &&
         result.snapshot->version >= served.floor &&
         SameAnswer(result.answer, tenant.expected[state]) &&
         WireMatches(served.response, served.request.id, tenant.name,
                     result.snapshot->version, tenant.body[state]);
}

void LoadAll(KbService& service, const std::vector<Tenant>& tenants,
             Client* client) {
  for (const Tenant& tenant : tenants) {
    Served served;
    Serve(service, LoadLine(client->next_id++, tenant), client, 0, &served);
    if (!served.mutation.ok) {
      throw std::runtime_error("LOAD " + tenant.name + " refused: " +
                               served.response + "\n" + tenant.kb_text);
    }
  }
}

// ---- CPU placement ----
//
// Every measured thread (clients, the service's workers, its maintenance
// and WAL threads) shares one CPU.  A thread inherits its creator's CPU
// mask, so RunWorkload pins the main thread before it builds a service or
// starts a client.  On a virtual machine with idle CPUs halted, a hand-off
// that wakes another CPU cost about 20 us more per request and its cost
// swung fourfold with the host's load; on one CPU the hop is the
// program's own context switch.

// The CPUs the process started with.
const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    return set;
  }();
  return allowed;
}

void SetThreadCpus(const cpu_set_t& set) {
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

// Device interrupts each CPU has served since boot (the numbered lines of
// /proc/interrupts); empty when the file cannot be read.
std::vector<uint64_t> DeviceInterrupts() {
  std::ifstream in("/proc/interrupts");
  std::string header;
  if (!std::getline(in, header)) return {};
  std::vector<int> cpus;  // column -> CPU number
  std::istringstream names(header);
  for (std::string name; names >> name;) {
    cpus.push_back(name.rfind("CPU", 0) == 0 ? std::atoi(name.c_str() + 3)
                                             : -1);
  }
  std::vector<uint64_t> counts(CPU_SETSIZE, 0);
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string irq;
    fields >> irq;
    if (irq.empty() || !std::isdigit(static_cast<unsigned char>(irq[0]))) {
      continue;  // LOC, RES, CAL, ...: every CPU takes these
    }
    uint64_t count = 0;
    for (size_t column = 0; column < cpus.size() && fields >> count;
         ++column) {
      if (cpus[column] >= 0 && cpus[column] < CPU_SETSIZE) {
        counts[static_cast<size_t>(cpus[column])] += count;
      }
    }
  }
  return counts;
}

// Pins the calling thread to the allowed CPU that has served the fewest
// device interrupts (a disk's completions would otherwise preempt the
// measured threads), the highest-numbered on a tie, and returns it.
int PinToOneCpu() {
  const cpu_set_t& allowed = AllowedCpus();
  const std::vector<uint64_t> interrupts = DeviceInterrupts();
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (cpu < 0 || interrupts.empty() ||
        interrupts[static_cast<size_t>(c)] <=
            interrupts[static_cast<size_t>(cpu)]) {
      cpu = c;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  SetThreadCpus(one);
  return cpu;
}

// Keeps the measured CPU busy while nothing else there can run: a spinning
// thread at SCHED_IDLE priority, which any other thread preempts at once.
// An idle virtual CPU halts, and its next wake-up (a due request in the
// open loop, an fsync completing) waited on the host's scheduler, whose
// delays followed the load of other machines on the host.
class IdleSpinner {
 public:
  IdleSpinner()
      : thread_([this] {
          sched_param param{};
          if (::sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
          while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();  // yields the core to an SMT sibling
#endif
          }
        }) {}
  ~IdleSpinner() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Runs fn(0) .. fn(count-1) on one thread per allowed CPU.  For untimed
// work only (reference answers): its threads may use every CPU.
template <typename Fn>
void ParallelFor(size_t count, Fn fn) {
  cpu_set_t own;
  CPU_ZERO(&own);
  if (::sched_getaffinity(0, sizeof(own), &own) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  const cpu_set_t& allowed = AllowedCpus();
  SetThreadCpus(allowed);
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < CPU_COUNT(&allowed); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  SetThreadCpus(own);
  for (auto& thread : pool) thread.join();
}

void ComputeReferences(std::vector<Tenant>* tenants,
                       const InferenceOptions& options) {
  ParallelFor(2 * tenants->size(), [&](size_t i) {
    Tenant& tenant = (*tenants)[i / 2];
    const int state = static_cast<int>(i % 2);
    if (state == 1 && tenant.marker.empty()) return;
    rwl::KnowledgeBase kb = BuildKb(tenant.kb_text, tenant.declare);
    if (state == 1) kb.AddParsed(tenant.marker);
    tenant.expected[state] = ReferenceAnswer(kb, tenant.query, options);
    tenant.body[state] = AnswerBody(tenant.expected[state]);
  });
}

// The 22 paper examples as tenants.  With `markers`, every tenant with a
// unary predicate gets a toggle fact about kMarkerConstant.
std::vector<Tenant> PaperTenants(bool markers) {
  std::vector<Tenant> tenants;
  for (const auto& example : rwl::fixtures::AllPaperExamples()) {
    Tenant tenant;
    tenant.name = example.id;
    tenant.kb_text = example.kb;
    tenant.declare = example.extra_constants;
    tenant.query = example.query;
    tenant.example = &example;
    if (markers) {
      rwl::KnowledgeBase probe = BuildKb(example.kb, {});
      for (const auto& predicate : probe.vocabulary().predicates()) {
        if (predicate.arity == 1) {
          tenant.marker = predicate.name + "(" + kMarkerConstant + ")";
          tenant.declare.push_back(kMarkerConstant);
          break;
        }
      }
    }
    tenants.push_back(std::move(tenant));
  }
  return tenants;
}

// A seeded permutation of [0, n).
std::vector<size_t> Permutation(size_t n, uint64_t seed, uint64_t stream) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::seed_seq seq{static_cast<uint32_t>(seed),
                    static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(stream)};
  std::mt19937_64 rng(seq);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

// The seeded request orders, shared by the workloads and InputDigest.
std::vector<size_t> ClientOrder(const Config& config, size_t n, int client) {
  return Permutation(n, config.seed, static_cast<uint64_t>(client));
}
std::vector<size_t> QueryOrder(const Config& config, size_t n) {
  return Permutation(n, config.seed, 0x71);
}
std::vector<size_t> MutationOrder(const Config& config, size_t n) {
  return Permutation(n, config.seed, 0x6d);
}
uint64_t MutationPhase(const Config& config) {
  return Permutation(static_cast<size_t>(kMutateEvery), config.seed, 0x70)[0];
}
std::vector<size_t> PairOrder(const Config& config, size_t n, int round) {
  return Permutation(n, config.seed, 0x1000 + static_cast<uint64_t>(round));
}

// ---- cold_generated inputs ----

// The printer writes small magnitudes in exponent form (2.6e-05), which
// the formula grammar does not accept; a client sends them in fixed
// notation, with the digits that read back to the same double.
std::string FixedNotation(const std::string& text) {
  static const std::regex kExponent(R"(\d+(\.\d+)?[eE][-+]?\d+)");
  std::string out;
  size_t copied = 0;
  for (std::sregex_iterator it(text.begin(), text.end(), kExponent), end;
       it != end; ++it) {
    const size_t at = static_cast<size_t>(it->position());
    const char before = at > 0 ? text[at - 1] : ' ';
    if (std::isalnum(static_cast<unsigned char>(before)) || before == '_' ||
        before == '.') {
      continue;  // part of a name or of a longer number
    }
    char digits[512];
    const std::to_chars_result fixed =
        std::to_chars(digits, digits + sizeof(digits),
                      std::strtod(it->str().c_str(), nullptr),
                      std::chars_format::fixed);
    out.append(text, copied, at - copied);
    out.append(digits, fixed.ptr);
    copied = at + static_cast<size_t>(it->length());
  }
  return out + text.substr(copied);
}

std::string KbText(const rwl::logic::FormulaPtr& kb) {
  std::string text;
  for (const auto& conjunct : rwl::logic::Conjuncts(kb)) {
    text += FixedNotation(rwl::logic::ToString(conjunct)) + "\n";
  }
  return text;
}

int UniformInt(std::mt19937* rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(*rng);
}

// One never-seen (KB, query) pair from generator family `family` (0-5).
Tenant GeneratePair(std::mt19937* rng, int family, const std::string& name) {
  static const char* kFamilies[] = {"unary",    "taxonomy_chain",
                                    "exception_chain", "evidence",
                                    "reference_classes", "mixed_relational"};
  Tenant tenant;
  tenant.name = name;
  tenant.family = kFamilies[family];
  rwl::logic::FormulaPtr kb;
  rwl::logic::FormulaPtr query;
  switch (family) {
    case 0: {
      rwl::workload::UnaryKbParams params;
      params.num_predicates = UniformInt(rng, 1, 3);
      params.num_constants = UniformInt(rng, 1, 2);
      params.num_statements = UniformInt(rng, 1, 3);
      params.num_facts = UniformInt(rng, 0, 2);
      params.default_fraction = 0.3;
      params.max_depth = UniformInt(rng, 1, 2);
      kb = rwl::workload::RandomUnaryKb(params, rng);
      query = rwl::workload::RandomQuery(params, rng);
      break;
    }
    case 1: {
      rwl::workload::ChainKb chain =
          rwl::workload::RandomChainKb(UniformInt(rng, 2, 4), rng);
      kb = chain.kb;
      query = chain.query;
      break;
    }
    case 2: {
      rwl::workload::ExceptionChainParams params;
      params.depth = UniformInt(rng, 2, 4);
      rwl::workload::ExceptionChainKb chain =
          rwl::workload::RandomExceptionChainKb(params, rng);
      kb = chain.kb;
      query = chain.queries[static_cast<size_t>(
          UniformInt(rng, 0, static_cast<int>(chain.queries.size()) - 1))];
      break;
    }
    case 3: {
      rwl::workload::EvidenceKbParams params;
      params.num_sources = UniformInt(rng, 2, 3);
      rwl::workload::EvidenceKb evidence =
          rwl::workload::RandomEvidenceKb(params, rng);
      kb = evidence.kb;
      query = evidence.query;
      break;
    }
    case 4: {
      rwl::workload::ReferenceClassKb refclass =
          rwl::workload::RandomReferenceClassKb(rng);
      kb = refclass.kb;
      query = refclass.query;
      break;
    }
    default: {
      // Binary predicates reach only the exact engine, so these ask for
      // Pr_N at a small fixed N (the QUERY "fixed_n" field).
      rwl::workload::MixedKbParams params;
      params.num_unary = UniformInt(rng, 1, 2);
      params.num_constants = UniformInt(rng, 1, 2);
      params.num_facts = UniformInt(rng, 1, 2);
      params.num_axioms = UniformInt(rng, 0, 1);
      params.num_statements = UniformInt(rng, 0, 1);
      kb = rwl::workload::RandomMixedKb(params, rng);
      query = rwl::workload::RandomMixedQuery(params, rng);
      tenant.fixed_n = UniformInt(rng, 2, 3);
      break;
    }
  }
  tenant.kb_text = KbText(kb);
  tenant.query = FixedNotation(rwl::logic::ToString(query));
  rwl::KnowledgeBase loaded;
  std::string error;
  if (!loaded.AddParsed(tenant.kb_text, &error) ||
      !rwl::logic::ParseFormula(tenant.query).ok()) {
    throw std::runtime_error("generated pair " + name +
                             " does not parse back: " + error);
  }
  // Query-only individuals are declared at LOAD, as a client would.
  rwl::logic::Vocabulary query_symbols;
  rwl::logic::RegisterSymbols(query, &query_symbols);
  for (const auto& constant : query_symbols.Constants()) {
    if (!loaded.vocabulary().FindFunction(constant.name).has_value() &&
        !loaded.vocabulary().FindPredicate(constant.name).has_value()) {
      tenant.declare.push_back(constant.name);
    }
  }
  return tenant;
}

std::vector<Tenant> GeneratePairs(uint64_t seed, int round, int count) {
  std::seed_seq seq{static_cast<uint32_t>(seed),
                    static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(round), 0x636f6c64u};
  std::mt19937 rng(seq);
  std::vector<Tenant> pairs;
  pairs.reserve(static_cast<size_t>(count));
  // Every family supplies a sixth of each round: the families' costs
  // differ by up to fiftyfold, so drawing the family at random would make
  // a round's work follow its family counts.
  for (int i = 0; i < count; ++i) {
    pairs.push_back(GeneratePair(
        &rng, i % 6, "g" + std::to_string(round) + "_" + std::to_string(i)));
  }
  return pairs;
}

// ---- service-side counters ----

struct ContextTotals {
  uint64_t finite_hits = 0, finite_misses = 0;
  uint64_t blob_hits = 0, blob_misses = 0, blob_bytes = 0;
};

// Cache counters of the heads, as deltas against `before` for snapshots
// that already existed then.
class ContextWatch {
 public:
  explicit ContextWatch(const KbService& service) {
    for (auto& head : service.Heads()) {
      before_[head.get()] = head->context->cache_stats();
      keep_.push_back(head);
    }
  }
  ContextTotals Since(const KbService& service) const {
    ContextTotals totals;
    for (auto& head : service.Heads()) {
      rwl::QueryContext::CacheStats now = head->context->cache_stats();
      auto it = before_.find(head.get());
      if (it != before_.end()) {
        now.finite_hits -= it->second.finite_hits;
        now.finite_misses -= it->second.finite_misses;
        now.blob_hits -= it->second.blob_hits;
        now.blob_misses -= it->second.blob_misses;
      }
      totals.finite_hits += now.finite_hits;
      totals.finite_misses += now.finite_misses;
      totals.blob_hits += now.blob_hits;
      totals.blob_misses += now.blob_misses;
      totals.blob_bytes += now.blob_bytes;
    }
    return totals;
  }

 private:
  std::map<const rwl::service::KbSnapshot*, rwl::QueryContext::CacheStats>
      before_;
  // Keeps the keyed snapshots alive, so no later head reuses an address.
  std::vector<std::shared_ptr<const rwl::service::KbSnapshot>> keep_;
};

// Sums counters over cold_generated's rounds; blob bytes, a level rather
// than a count, keeps the largest round's.
void Accumulate(ContextTotals* into, const ContextTotals& add) {
  into->finite_hits += add.finite_hits;
  into->finite_misses += add.finite_misses;
  into->blob_hits += add.blob_hits;
  into->blob_misses += add.blob_misses;
  into->blob_bytes = std::max(into->blob_bytes, add.blob_bytes);
}

// Everything the per-layer metrics are computed from.
struct LayerData {
  std::vector<std::unique_ptr<Client>> clients;  // all clients of the run
  double schedule_points = 1.0;
  uint64_t rejected = 0;
  ContextTotals context;
  // Catalog maintenance (durable_mixed).
  uint64_t minted = 0, patched = 0, coalesced = 0, mutations_acked = 0;
  double queue_depth_max = 0.0;
  std::vector<double> publish_lag_us;
  // WAL (durable_mixed).
  rwl::service::WalStats wal;
  double wal_bytes = 0.0;
};

double Frac(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void AddLayerMetrics(const Config& config, LayerData& data, Report* report) {
  std::vector<const Tracer*> tracers;
  PlanTally plans;
  std::vector<double> admit, hop, traced, untraced, lag;
  for (const auto& client : data.clients) {
    tracers.push_back(&client->tracer);
    plans.Merge(client->plans);
    admit.insert(admit.end(), client->admit_us.begin(),
                 client->admit_us.end());
    hop.insert(hop.end(), client->hop_us.begin(), client->hop_us.end());
    traced.insert(traced.end(), client->traced_us.begin(),
                  client->traced_us.end());
    untraced.insert(untraced.end(), client->untraced_us.begin(),
                    client->untraced_us.end());
    lag.insert(lag.end(), client->lag_us.begin(), client->lag_us.end());
  }
  const TraceSummary summary = Summarize(tracers);
  auto self_mean = [&](const char* layer) {
    auto it = summary.layers.find(layer);
    return it == summary.layers.end() || it->second.count == 0
               ? 0.0
               : it->second.self_us / static_cast<double>(it->second.count);
  };
  auto add = [&](const std::string& name, double value, const char* unit) {
    report->layers.push_back(Metric{name, value, unit});
  };
  const double answers = static_cast<double>(plans.answers);
  add("protocol.decode_us", self_mean("protocol.decode"), "us");
  add("protocol.encode_us", self_mean("protocol.encode"), "us");
  add("service.query_us", self_mean("service.query"), "us");
  add("service.admit_to_done_us", Mean(admit), "us");
  add("service.hop_us", Mean(hop), "us");
  add("scheduler.rejected", static_cast<double>(data.rejected), "count");
  add("logic.parse_us", self_mean("logic.parse"), "us");
  add("catalog.pin_us", self_mean("catalog.pin"), "us");
  add("catalog.publish_lag_us", Mean(data.publish_lag_us), "us");
  add("catalog.patched_frac",
      Frac(static_cast<double>(data.patched), static_cast<double>(data.minted)),
      "frac");
  add("catalog.coalesced_frac",
      Frac(static_cast<double>(data.coalesced),
           static_cast<double>(data.mutations_acked)),
      "frac");
  add("catalog.queue_depth_max", data.queue_depth_max, "count");
  add("planner.planning_us", 1e3 * Frac(plans.planning_ms, answers), "us");
  add("planner.cache_hit_frac",
      Frac(static_cast<double>(plans.plan_cache_hits), answers), "frac");
  add("planner.total_us", 1e3 * Frac(plans.total_ms, answers), "us");
  const ContextTotals& ctx = data.context;
  add("context.finite_hit_frac",
      Frac(static_cast<double>(ctx.finite_hits),
           static_cast<double>(ctx.finite_hits + ctx.finite_misses)),
      "frac");
  add("context.blob_hit_frac",
      Frac(static_cast<double>(ctx.blob_hits),
           static_cast<double>(ctx.blob_hits + ctx.blob_misses)),
      "frac");
  add("context.blob_mb",
      static_cast<double>(ctx.blob_bytes) / (1024.0 * 1024.0), "MiB");
  for (int s = 0; s < kNumStrategies; ++s) {
    const std::string prefix = std::string("strategy.") + kStrategies[s];
    const double ran = static_cast<double>(plans.ran[s]);
    add(prefix + ".ms", Frac(plans.ms[s], ran), "ms");
    add(prefix + ".ran", Frac(ran, answers), "frac");
    add(prefix + ".final", Frac(static_cast<double>(plans.finals[s]), answers),
        "frac");
  }
  for (const char* name : {"profile", "exact", "maxent"}) {
    for (int s = 0; s < kNumStrategies; ++s) {
      if (std::string(kStrategies[s]) != name) continue;
      add(std::string("strategy.") + name + ".ms_per_point",
          Frac(plans.ms[s], plans.points[s]), "ms");
    }
  }
  add("wal.fsync_p50_us", data.wal.fsync_p50_us, "us");
  add("wal.fsync_p99_us", data.wal.fsync_p99_us, "us");
  add("wal.records_per_fsync",
      Frac(static_cast<double>(data.wal.appends),
           static_cast<double>(data.wal.fsyncs)),
      "count");
  add("wal.snapshots", static_cast<double>(data.wal.snapshots), "count");
  add("wal.bytes_per_mutation",
      Frac(data.wal_bytes, static_cast<double>(data.mutations_acked)), "B");
  add("loadgen.lag_p99_us", Percentile(&lag, 0.99), "us");
  add("trace.overhead_frac", untraced.empty() || traced.empty()
                                 ? 0.0
                                 : Mean(traced) / Mean(untraced) - 1.0,
      "frac");
  add("trace.request_uncovered_frac", summary.request_uncovered_frac, "frac");
  if (!TraceCovers(summary)) {
    report->checks_ok = false;
    report->lines.push_back("check: child spans leave more than " +
                            std::to_string(kMaxUncoveredFrac) +
                            " of request time uncovered");
  }
  // Per-layer self-time table, and the spans themselves.
  for (const auto& [layer, totals] : summary.layers) {
    char row[256];
    std::snprintf(row, sizeof(row),
                  "layer %-28s spans=%-8llu mean_us=%.3f self_mean_us=%.3f",
                  layer.c_str(), static_cast<unsigned long long>(totals.count),
                  totals.total_us / static_cast<double>(totals.count),
                  totals.self_us / static_cast<double>(totals.count));
    report->lines.push_back(row);
  }
  std::filesystem::create_directories(config.scratch);
  const std::string path = config.scratch + "/trace-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".ndjson";
  std::ofstream out(path);
  for (size_t c = 0; c < tracers.size(); ++c) {
    const std::vector<Span>& spans = tracers[c]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      out << "{\"client\":" << c << ",\"span\":" << i
          << ",\"request\":" << span.request << ",\"parent\":" << span.parent
          << ",\"name\":\"" << LayerName(span.layer)
          << "\",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << "}\n";
    }
  }
  report->lines.push_back("trace: spans written to " + path);
}

// A stretch of the measured interval and the latencies of the queries
// that completed in it.
struct Window {
  double seconds = 0.0;
  std::vector<double> us;
};

// Splits the clients' completion-stamped query latencies into windows of
// about 100 ms (thousands of queries each in the workloads that use them).
std::vector<Window> Windows(const std::vector<std::unique_ptr<Client>>& clients,
                            int64_t start_ns, int64_t end_ns) {
  const int64_t span = std::max<int64_t>(end_ns - start_ns, 1);
  const size_t count = std::max<int64_t>(span / 100'000'000, 1);
  std::vector<Window> windows(count);
  for (Window& window : windows) {
    window.seconds =
        static_cast<double>(span) / 1e9 / static_cast<double>(count);
  }
  for (const auto& client : clients) {
    for (size_t i = 0; i < client->query_end_ns.size(); ++i) {
      const int64_t offset =
          std::clamp<int64_t>(client->query_end_ns[i] - start_ns, 0, span - 1);
      windows[static_cast<size_t>(offset) * count / static_cast<size_t>(span)]
          .us.push_back(client->query_us[i]);
    }
  }
  return windows;
}

// Throughput and latency percentiles are taken per window and reported as
// their medians over the windows, so a burst of noise from the host moves
// one window rather than the run's figure.  With `pool_latency` the
// percentiles come from all windows' latencies together instead (a window
// of cold queries holds too few samples for a steady tail).
void AddQueryMetrics(double setup_s, std::vector<Window> windows,
                     bool pool_latency, Report* report) {
  std::vector<double> qps, p50, p99;
  double samples = 0.0;
  Window pooled;
  for (Window& window : windows) {
    const double count = static_cast<double>(window.us.size());
    samples += count;
    qps.push_back(Frac(count, window.seconds));
    if (pool_latency) {
      pooled.us.insert(pooled.us.end(), window.us.begin(), window.us.end());
    } else {
      p50.push_back(Percentile(&window.us, 0.50));
      p99.push_back(Percentile(&window.us, 0.99));
    }
  }
  if (pool_latency) {
    p50.push_back(Percentile(&pooled.us, 0.50));
    p99.push_back(Percentile(&pooled.us, 0.99));
  }
  report->end_to_end.push_back({"setup_s", setup_s, "s"});
  report->end_to_end.push_back({"query_qps", Median(qps), "1/s"});
  report->end_to_end.push_back({"query_p50_us", Median(p50), "us"});
  report->end_to_end.push_back({"query_p99_us", Median(p99), "us"});
  report->end_to_end.push_back({"query_samples", samples, "count"});
  report->end_to_end.push_back(
      {"query_windows", static_cast<double>(windows.size()), "count"});
  char row[256];
  std::snprintf(row, sizeof(row),
                "windows %zu: qps %.0f..%.0f, p99_us %.1f..%.1f",
                windows.size(), *std::min_element(qps.begin(), qps.end()),
                *std::max_element(qps.begin(), qps.end()),
                *std::min_element(p99.begin(), p99.end()),
                *std::max_element(p99.begin(), p99.end()));
  report->lines.push_back(row);
}

void Share(Report* report, const std::string& name, double value,
           const std::string& what) {
  char row[256];
  std::snprintf(row, sizeof(row), "share %-32s %.6f  (%s)", name.c_str(),
                value, what.c_str());
  report->lines.push_back(row);
}

void MergeClients(const std::vector<std::unique_ptr<Client>>& clients,
                  Report* report, std::vector<double>* mutations) {
  for (const auto& client : clients) {
    report->attempted += client->attempted;
    report->failed += client->failed;
    if (mutations != nullptr) {
      mutations->insert(mutations->end(), client->mutation_us.begin(),
                        client->mutation_us.end());
    }
  }
}

// ---- set-up shared by warm_readonly, durable_mixed and paper_corpus ----

// Builds a service and loads the tenants.  Returns the wall time: the
// set-up a change moving work from queries into LOAD would lengthen.
double SetUpService(const ServiceOptions& options,
                    const std::vector<Tenant>& tenants,
                    std::unique_ptr<KbService>* service, Client* client) {
  const Clock::time_point start = Clock::now();
  client->session = {};  // versions restart in every new service
  *service = std::make_unique<KbService>(options);
  LoadAll(**service, tenants, client);
  return SecondsSince(start);
}

// Sets up services in bursts (see kSetupBursts) and keeps the last one;
// returns setup_s.  `before_each` runs, untimed, before each set-up.
template <typename Fn>
double SetUpServices(const ServiceOptions& options,
                     const std::vector<Tenant>& tenants,
                     std::unique_ptr<KbService>* service, Client* client,
                     Fn before_each) {
  std::vector<double> bursts;
  int i = 0;
  for (int b = 0; b < kSetupBursts; ++b) {
    if (b > 0) std::this_thread::sleep_for(kBurstPause);
    std::vector<double> setups;
    const Clock::time_point start = Clock::now();
    do {
      service->reset();
      before_each(i++);
      setups.push_back(SetUpService(options, tenants, service, client));
    } while (SecondsSince(start) < kBurstSeconds);
    bursts.push_back(Median(setups));
  }
  return Median(bursts);
}

// Warms every tenant with one cold and one warm query, and toggles every
// marker once (all checked).  Returns the wall time.  Cold work dominates
// it (E5.24's query; in durable_mixed also the heavy tenants' successors),
// and its speed varied by up to 60% between set-ups in one process, so it
// is printed as warm_up_s rather than counted in setup_s.
double WarmUp(KbService& service, const std::vector<Tenant>& tenants,
              Client* client) {
  const Clock::time_point start = Clock::now();
  auto query = [&](const Tenant& tenant, int state) {
    Served served;
    Serve(service, WithId(client->next_id++, QuerySuffix(tenant)), client, 0,
          &served);
    client->Count(QueryCorrect(served, tenant, state));
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const Tenant& tenant : tenants) query(tenant, 0);
  }
  // Toggle every marker once, waiting for each successor to publish, so
  // both states of every tenant are warm before the timed run.
  for (const Tenant& tenant : tenants) {
    if (tenant.marker.empty()) continue;
    for (int state : {1, 0}) {
      Served served;
      Serve(service,
            WithId(client->next_id++, MutationSuffix(tenant, state == 1)),
            client, 0, &served);
      if (!served.mutation.ok ||
          !service.WaitForVersion(tenant.name, served.mutation.version,
                                  60000.0)) {
        throw std::runtime_error("set-up toggle of " + tenant.name +
                                 " failed: " + served.response);
      }
      query(tenant, state);
    }
  }
  return SecondsSince(start);
}

// Whether a request of this sequence number is traced: every other one, so
// the untraced half measures the tracing overhead in the same run.
bool TracedRequest(const Config& config, uint64_t seq) {
  return config.trace && (seq % 2 == 0);
}

// Traced requests that also run the hop probe.
bool ProbedRequest(uint64_t seq) { return seq % 16 == 0; }

// ---- warm_readonly ----

Report WarmReadonly(const Config& config) {
  Report report;
  ServiceOptions options;
  options.scheduler.num_threads = config.workers;
  options.inference = CappedSweep();
  std::vector<Tenant> tenants = PaperTenants(false);
  ComputeReferences(&tenants, options.inference);

  Client setup_client(false);
  std::unique_ptr<KbService> service;
  const double setup_s =
      SetUpServices(options, tenants, &service, &setup_client, [](int) {});
  const double warm_up_s = WarmUp(*service, tenants, &setup_client);
  report.attempted += setup_client.attempted;
  report.failed += setup_client.failed;

  LayerData data;
  data.schedule_points = SchedulePoints(options.inference);
  const uint64_t rejected_before = service->scheduler_stats().rejected;
  ContextWatch watch(*service);
  std::vector<std::string> suffixes;
  for (const Tenant& tenant : tenants) suffixes.push_back(QuerySuffix(tenant));
  for (int c = 0; c < config.clients; ++c) {
    data.clients.push_back(std::make_unique<Client>(config.trace));
    data.clients.back()->Prefault(1 << 19, false);
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const int64_t start_ns = NowNs();
  for (int c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      Client* client = data.clients[static_cast<size_t>(c)].get();
      const std::vector<size_t> order = ClientOrder(config, tenants.size(), c);
      for (uint64_t seq = 0; !stop.load(std::memory_order_relaxed); ++seq) {
        const size_t t = order[seq % order.size()];
        const Tenant& tenant = tenants[t];
        const bool traced = TracedRequest(config, seq);
        const uint64_t trace_id = (static_cast<uint64_t>(c) << 40) | seq;
        Served served;
        const std::string line = WithId(client->next_id++, suffixes[t]);
        client->tracer.set_active(traced);
        const double us = ServeTimed(*service, line, client, trace_id, &served);
        client->query_us.push_back(us);
        client->query_end_ns.push_back(NowNs());
        client->Count(QueryCorrect(served, tenant, 0));
        client->plans.Add(served.query.answer, data.schedule_points);
        if (config.trace) {
          (traced ? client->traced_us : client->untraced_us).push_back(us);
          if (traced) client->admit_us.push_back(served.query.latency_ms * 1e3);
          if (traced && ProbedRequest(seq)) {
            Probe(*service, served, client, trace_id);
          }
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(config.seconds));
  const int64_t end_ns = NowNs();
  stop.store(true);
  for (auto& thread : threads) thread.join();

  MergeClients(data.clients, &report, nullptr);
  AddQueryMetrics(setup_s, Windows(data.clients, start_ns, end_ns), false,
                  &report);
  report.end_to_end.push_back({"warm_up_s", warm_up_s, "s"});
  PlanTally plans;
  for (const auto& client : data.clients) plans.Merge(client->plans);
  const ContextTotals ctx = watch.Since(*service);
  Share(&report, "warm_readonly.plan_cache_hit",
        Frac(static_cast<double>(plans.plan_cache_hits),
             static_cast<double>(plans.answers)),
        "answers whose plan came from the plan cache");
  Share(&report, "warm_readonly.memo_hit",
        Frac(static_cast<double>(ctx.finite_hits),
             static_cast<double>(ctx.finite_hits + ctx.finite_misses)),
        "finite-memo lookups that hit, over the timed interval");
  if (config.trace) {
    data.rejected = service->scheduler_stats().rejected - rejected_before;
    data.context = ctx;
    AddLayerMetrics(config, data, &report);
  }
  return report;
}

// ---- durable_mixed ----

// Per-tenant toggle state, written only by the writer client.
struct ToggleState {
  bool asserted = false;
  std::vector<std::pair<uint64_t, bool>> history;  // (acked version, state)
};

int StateAt(const ToggleState& toggle, uint64_t version) {
  int state = 0;
  for (const auto& [acked, asserted] : toggle.history) {
    if (acked > version) break;
    state = asserted ? 1 : 0;
  }
  return state;
}

Report DurableMixed(const Config& config) {
  Report report;
  ServiceOptions options;
  options.scheduler.num_threads = config.workers;
  options.inference = CappedSweep();
  std::vector<Tenant> tenants = PaperTenants(true);
  ComputeReferences(&tenants, options.inference);
  std::vector<size_t> mutable_tenants;
  for (size_t t = 0; t < tenants.size(); ++t) {
    if (!tenants[t].marker.empty()) mutable_tenants.push_back(t);
  }

  // Snapshots every 32 journaled mutations per KB (the default is 256), so
  // each run covers several snapshot-and-truncate cycles per tenant.
  options.wal.snapshot_every = 32;
  const std::string wal_root =
      config.scratch + "/wal-" + std::to_string(::getpid());
  Client setup_client(false);
  std::unique_ptr<KbService> service;
  const double setup_s = SetUpServices(
      options, tenants, &service, &setup_client, [&](int i) {
        std::filesystem::remove_all(wal_root);
        options.wal.dir = wal_root + "/" + std::to_string(i);
        std::filesystem::create_directories(options.wal.dir);
      });
  const double warm_up_s = WarmUp(*service, tenants, &setup_client);
  report.attempted += setup_client.attempted;
  report.failed += setup_client.failed;

  LayerData data;
  data.schedule_points = SchedulePoints(options.inference);
  const uint64_t rejected_before = service->scheduler_stats().rejected;
  const rwl::service::KbCatalog::MaintenanceStats maintenance_before =
      service->maintenance_stats();
  ContextWatch watch(*service);
  std::deque<ToggleState> toggles(tenants.size());
  std::vector<std::string> suffixes;
  for (const Tenant& tenant : tenants) suffixes.push_back(QuerySuffix(tenant));
  // Client 0 is the writer; clients 1..config.clients send the queries.
  for (int c = 0; c <= config.clients; ++c) {
    data.clients.push_back(std::make_unique<Client>(config.trace));
    data.clients.back()->Prefault(
        static_cast<size_t>(config.rate * config.seconds) /
            static_cast<size_t>(config.clients) + 1024,
        true);
  }
  // Query outcomes are resolved against the toggle history after the run.
  struct Pending {
    uint32_t tenant;
    uint64_t version;
    bool matches[2];
  };
  std::vector<std::vector<Pending>> pending(data.clients.size());

  // Publication lag (traced runs): an observer waits for every acked
  // version to publish and samples the maintenance queue depth.
  std::mutex acks_mutex;
  std::deque<std::tuple<std::string, uint64_t, int64_t>> acks;
  std::atomic<bool> stop_observer{false};
  std::thread observer;
  if (config.trace) {
    observer = std::thread([&] {
      while (true) {
        std::tuple<std::string, uint64_t, int64_t> ack;
        bool have = false;
        {
          std::lock_guard<std::mutex> lock(acks_mutex);
          if (!acks.empty()) {
            ack = acks.front();
            acks.pop_front();
            have = true;
          }
        }
        const double depth =
            static_cast<double>(service->maintenance_stats().queue_depth);
        data.queue_depth_max = std::max(data.queue_depth_max, depth);
        if (!have) {
          if (stop_observer.load()) return;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        const auto& [kb, version, acked_ns] = ack;
        if (service->WaitForVersion(kb, version, 5000.0)) {
          data.publish_lag_us.push_back(
              static_cast<double>(NowNs() - acked_ns) / 1e3);
        }
      }
    });
  }

  // Open loop: op k is due at start + k / rate.  One op in kMutateEvery
  // toggles a tenant's marker; the rest query.  Like rwlload, one writer
  // connection (client 0) sends every mutation and config.clients reader
  // connections the queries.  The writer reads its own writes after the
  // timed interval: a read-your-writes query waits for its version to
  // publish and then, for a tenant whose successor is still minting,
  // computes on a cold staged snapshot, which would stall the open loop
  // behind one tenant's sweep.
  //
  // query_p50_us / query_p99_us time each query from its send, as in the
  // closed loops; the from-due percentiles and loadgen lag add the wait a
  // process-wide stall imposes on every request due during it.  Stalls of
  // milliseconds to a second recur while successors of the heavy tenants
  // publish, so the from-due tail is reported but too unsteady to bound.
  const double period_ns = 1e9 / config.rate;
  const uint64_t total_ops =
      static_cast<uint64_t>(config.seconds * config.rate);
  const uint64_t every = kMutateEvery;
  const std::vector<size_t> query_order = QueryOrder(config, tenants.size());
  const std::vector<size_t> mutation_order =
      MutationOrder(config, mutable_tenants.size());
  const uint64_t mutation_phase = MutationPhase(config);
  std::atomic<uint64_t> next_query{0};
  std::vector<std::thread> threads;
  const int64_t start_ns = NowNs() + 2'000'000;
  // Sleeps until op k is due; returns the due time.
  auto wait_due = [&](Client* client, uint64_t k) {
    const int64_t due_ns =
        start_ns + static_cast<int64_t>(static_cast<double>(k) * period_ns);
    int64_t now = NowNs();
    if (now < due_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
      now = NowNs();
    }
    client->lag_us.push_back(static_cast<double>(now - due_ns) / 1e3);
    client->tracer.set_active(TracedRequest(config, k));
    return due_ns;
  };
  // Serves a query, times it from its send and from its due time, and
  // queues its check against the toggle history.
  auto query = [&](int c, size_t t, uint64_t k, int64_t due_ns) {
    Client* client = data.clients[static_cast<size_t>(c)].get();
    Served served;
    const std::string line = WithId(client->next_id++, suffixes[t]);
    const int64_t send_ns = NowNs();
    Serve(*service, line, client, k, &served);
    const int64_t end_ns = NowNs();
    const double us = static_cast<double>(end_ns - send_ns) / 1e3;
    client->query_us.push_back(us);
    client->due_us.push_back(static_cast<double>(end_ns - due_ns) / 1e3);
    client->query_end_ns.push_back(end_ns);
    const KbService::QueryResult& result = served.query;
    const bool served_ok = result.ok && result.snapshot != nullptr &&
                           result.snapshot->version >= served.floor;
    pending[static_cast<size_t>(c)].push_back(
        Pending{static_cast<uint32_t>(t),
                served_ok ? result.snapshot->version : 0,
                {served_ok && QueryCorrect(served, tenants[t], 0),
                 served_ok && !tenants[t].marker.empty() &&
                     QueryCorrect(served, tenants[t], 1)}});
    client->plans.Add(result.answer, data.schedule_points);
    if (config.trace) {
      const bool traced = TracedRequest(config, k);
      (traced ? client->traced_us : client->untraced_us).push_back(us);
      if (traced) client->admit_us.push_back(result.latency_ms * 1e3);
      if (traced && ProbedRequest(k)) Probe(*service, served, client, k);
    }
  };
  threads.emplace_back([&] {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Client* client = data.clients[0].get();
    for (uint64_t m = 0;; ++m) {
      const uint64_t k = m * every + mutation_phase;
      if (k >= total_ops) break;
      const int64_t due_ns = wait_due(client, k);
      const size_t t =
          mutable_tenants[mutation_order[m % mutation_order.size()]];
      ToggleState& toggle = toggles[t];
      const bool assert_op = !toggle.asserted;
      Served served;
      Serve(*service,
            WithId(client->next_id++, MutationSuffix(tenants[t], assert_op)),
            client, k, &served);
      const int64_t done = NowNs();
      client->mutation_us.push_back(static_cast<double>(done - due_ns) / 1e3);
      client->Count(served.mutation.ok &&
                    served.response ==
                        "{\"id\":" + std::to_string(served.request.id) +
                            ",\"ok\":true,\"kb\":\"" + tenants[t].name +
                            "\",\"version\":" +
                            std::to_string(served.mutation.version) + "}");
      if (!served.mutation.ok) continue;
      toggle.asserted = assert_op;
      toggle.history.emplace_back(served.mutation.version, assert_op);
      if (config.trace) {
        std::lock_guard<std::mutex> lock(acks_mutex);
        acks.emplace_back(tenants[t].name, served.mutation.version, done);
      }
    }
  });
  for (int c = 1; c <= config.clients; ++c) {
    threads.emplace_back([&, c] {
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      Client* client = data.clients[static_cast<size_t>(c)].get();
      for (;;) {
        // The q-th query slot, skipping the writer's slot in each block.
        const uint64_t q = next_query.fetch_add(1);
        const uint64_t r = q % (every - 1);
        const uint64_t k =
            q / (every - 1) * every + (r < mutation_phase ? r : r + 1);
        if (k >= total_ops) break;
        query(c, query_order[k % query_order.size()], k, wait_due(client, k));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const int64_t end_ns = NowNs();
  stop_observer.store(true);
  if (observer.joinable()) observer.join();

  // The writer reads every tenant it mutated: each read must pin a version
  // at or above the writer's last ack there.
  std::vector<double> ryw_us;
  for (size_t t : mutable_tenants) {
    if (toggles[t].history.empty()) continue;
    Client* writer = data.clients[0].get();
    writer->tracer.set_active(false);
    Served served;
    const int64_t begin = NowNs();
    Serve(*service, WithId(writer->next_id++, suffixes[t]), writer, 0, &served);
    ryw_us.push_back(static_cast<double>(NowNs() - begin) / 1e3);
    const int state = toggles[t].asserted ? 1 : 0;
    writer->Count(served.floor == toggles[t].history.back().first &&
                  QueryCorrect(served, tenants[t], state));
  }

  // Resolve each query against the tenant state at its pinned version.
  for (size_t c = 0; c < pending.size(); ++c) {
    for (const Pending& p : pending[c]) {
      data.clients[c]->Count(p.version > 0 &&
                             p.matches[StateAt(toggles[p.tenant], p.version)]);
    }
  }
  std::vector<double> mutations;
  MergeClients(data.clients, &report, &mutations);
  // Timed from the due time, the open loop's latencies also carry the wait
  // a stall imposes on every request due during it.
  std::vector<double> due;
  for (const auto& client : data.clients) {
    due.insert(due.end(), client->due_us.begin(), client->due_us.end());
  }
  report.end_to_end.push_back(
      {"query_from_due_p50_us", Percentile(&due, 0.50), "us"});
  report.end_to_end.push_back(
      {"query_from_due_p99_us", Percentile(&due, 0.99), "us"});
  const double ryw_count = static_cast<double>(ryw_us.size());
  report.end_to_end.push_back(
      {"ryw_read_p50_us", Percentile(&ryw_us, 0.5), "us"});
  report.end_to_end.push_back({"ryw_read_samples", ryw_count, "count"});
  const double mutation_count = static_cast<double>(mutations.size());
  AddQueryMetrics(setup_s, Windows(data.clients, start_ns, end_ns), false,
                  &report);
  report.end_to_end.push_back({"warm_up_s", warm_up_s, "s"});
  report.end_to_end.push_back(
      {"mutation_p50_us", Percentile(&mutations, 0.50), "us"});
  report.end_to_end.push_back(
      {"mutation_p99_us", Percentile(&mutations, 0.99), "us"});
  report.end_to_end.push_back({"mutation_samples", mutation_count, "count"});

  service->DrainMaintenance(30000.0);
  const rwl::service::KbCatalog::MaintenanceStats maintenance =
      service->maintenance_stats();
  const uint64_t minted = maintenance.minted - maintenance_before.minted;
  Share(&report, "durable_mixed.patched_mints",
        Frac(static_cast<double>(maintenance.patched -
                                 maintenance_before.patched),
             static_cast<double>(minted)),
        "published successors whose caches were patched in place");
  Share(&report, "durable_mixed.rebuilt_mints",
        Frac(static_cast<double>(maintenance.rebuilt -
                                 maintenance_before.rebuilt),
             static_cast<double>(minted)),
        "published successors left to rebuild caches");
  const rwl::service::WalStats wal = service->wal()->stats();
  char wal_row[256];
  std::snprintf(wal_row, sizeof(wal_row),
                "wal appends=%llu fsyncs=%llu snapshots=%llu fsync_p50_us=%.1f "
                "fsync_p99_us=%.1f",
                static_cast<unsigned long long>(wal.appends),
                static_cast<unsigned long long>(wal.fsyncs),
                static_cast<unsigned long long>(wal.snapshots),
                wal.fsync_p50_us, wal.fsync_p99_us);
  report.lines.push_back(wal_row);
  if (config.trace) {
    data.rejected = service->scheduler_stats().rejected - rejected_before;
    data.context = watch.Since(*service);
    data.minted = minted;
    data.patched = maintenance.patched - maintenance_before.patched;
    data.coalesced = maintenance.coalesced - maintenance_before.coalesced;
    data.wal = wal;
    for (size_t t = 0; t < toggles.size(); ++t) {
      for (const auto& [version, asserted] : toggles[t].history) {
        rwl::service::WalRecord record;
        record.op = asserted ? rwl::service::WalRecord::Op::kAssert
                             : rwl::service::WalRecord::Op::kRetract;
        record.kb = tenants[t].name;
        record.version = version;
        record.text = tenants[t].marker;
        const size_t line = rwl::service::EncodeWalRecord(record).size() + 1;
        data.wal_bytes += static_cast<double>(line);
        ++data.mutations_acked;
      }
    }
    AddLayerMetrics(config, data, &report);
  }

  // Recovery must hold every acked mutation.  Each ack bumps its tenant's
  // version, so the journal must replay each tenant up to its last acked
  // version (a lost pair of toggles leaves the same KB but an older
  // version), and a fresh service on the same WAL directory must hold the
  // final KB.
  const rwl::service::SessionState& writer_session = data.clients[0]->session;
  service.reset();
  std::vector<rwl::service::KbWal::RecoveredKb> journaled;
  uint64_t max_version = 0;
  std::vector<std::string> warnings;
  std::string error;
  bool recovery_ok = rwl::service::KbWal::Recover(
      options.wal.dir, &journaled, &max_version, &warnings, &error);
  for (size_t t = 0; t < tenants.size() && recovery_ok; ++t) {
    const std::string& name = tenants[t].name;
    const uint64_t acked = std::max(setup_client.session.AckedVersion(name),
                                    writer_session.AckedVersion(name));
    auto it = std::find_if(
        journaled.begin(), journaled.end(),
        [&](const rwl::service::KbWal::RecoveredKb& kb) {
          return kb.name == name;
        });
    recovery_ok = it != journaled.end() && it->version == acked;
    if (!recovery_ok) {
      error = "tenant " + name + " replays to version " +
              (it == journaled.end() ? "none" : std::to_string(it->version)) +
              ", last ack " + std::to_string(acked);
    }
  }
  KbService recovered(options);
  recovery_ok = recovery_ok && recovered.Recover(&warnings, &error);
  for (size_t t = 0; t < tenants.size() && recovery_ok; ++t) {
    rwl::KnowledgeBase expected =
        BuildKb(tenants[t].kb_text, tenants[t].declare);
    if (toggles[t].asserted) expected.AddParsed(tenants[t].marker);
    auto head = recovered.Snapshot(tenants[t].name);
    recovery_ok = head != nullptr &&
                  head->kb.AsFormula() == expected.AsFormula() &&
                  head->kb.vocabulary().Fingerprint() ==
                      expected.vocabulary().Fingerprint();
    if (!recovery_ok) error = "tenant " + tenants[t].name + " differs";
  }
  report.lines.push_back(std::string("check: WAL recovery ") +
                         (recovery_ok ? "holds every acked mutation"
                                      : "FAILED: " + error));
  if (!recovery_ok) report.checks_ok = false;
  std::filesystem::remove_all(wal_root);
  return report;
}

// ---- cold_generated ----

struct ColdRecord {
  const Tenant* tenant = nullptr;
  InferenceOptions options;
  Answer answer;
  std::string response;
  int64_t id = 0;
  uint64_t version = 0;
  bool ok = false;
};

Report ColdGenerated(const Config& config) {
  Report report;
  ServiceOptions options;
  options.scheduler.num_threads = config.workers;
  options.inference = ShortSweep();

  LayerData data;
  data.schedule_points = SchedulePoints(options.inference);
  for (int c = 0; c < config.clients; ++c) {
    data.clients.push_back(std::make_unique<Client>(config.trace));
  }
  std::vector<std::unique_ptr<std::vector<Tenant>>> rounds;
  std::vector<std::vector<ColdRecord>> records;
  std::vector<double> setups;
  std::vector<Window> windows;  // one per round
  Client setup_client(false);
  // One round of fresh tenants per two requested seconds (at least
  // kMinRounds): a fixed amount of work, so every commit answers the same
  // pairs.  A round takes about a second on a 4-core Xeon; its answers'
  // uncached references, computed after the timed interval, take as long
  // again.  Each round's set-up (service + LOAD of every pair) is one
  // setup_s sample.
  const int round_count = std::max(
      kMinRounds, static_cast<int>(std::lround(config.seconds / 2.0)));
  while (static_cast<int>(rounds.size()) < round_count) {
    const int round = static_cast<int>(rounds.size());
    rounds.push_back(std::make_unique<std::vector<Tenant>>(
        GeneratePairs(config.seed, round, kPairs)));
    const std::vector<Tenant>& pairs = *rounds.back();
    const Clock::time_point setup_start = Clock::now();
    auto service = std::make_unique<KbService>(options);
    LoadAll(*service, pairs, &setup_client);
    setups.push_back(SecondsSince(setup_start));

    const uint64_t rejected_before = service->scheduler_stats().rejected;
    ContextWatch watch(*service);
    std::vector<ColdRecord> round_records(pairs.size());
    const std::vector<size_t> order = PairOrder(config, pairs.size(), round);
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    std::vector<size_t> first_sample;
    for (const auto& client : data.clients) {
      first_sample.push_back(client->query_us.size());
    }
    const Clock::time_point start = Clock::now();
    for (int c = 0; c < config.clients; ++c) {
      threads.emplace_back([&, c] {
        Client* client = data.clients[static_cast<size_t>(c)].get();
        for (;;) {
          const size_t k = next.fetch_add(1);
          if (k >= order.size()) break;
          const Tenant& tenant = pairs[order[k]];
          const bool traced = TracedRequest(config, k);
          const uint64_t trace_id = (static_cast<uint64_t>(round) << 32) | k;
          client->tracer.set_active(traced);
          Served served;
          const std::string line =
              WithId(client->next_id++, QuerySuffix(tenant));
          const double us =
              ServeTimed(*service, line, client, trace_id, &served);
          client->query_us.push_back(us);
          ColdRecord& record = round_records[order[k]];
          record.tenant = &tenant;
          record.options = service->EffectiveOptions(served.request.options);
          record.answer = served.query.answer;
          record.response = std::move(served.response);
          record.id = served.request.id;
          record.ok = served.query.ok && served.query.snapshot != nullptr;
          record.version = record.ok ? served.query.snapshot->version : 0;
          client->plans.Add(served.query.answer, data.schedule_points);
          if (config.trace) {
            (traced ? client->traced_us : client->untraced_us).push_back(us);
            if (traced) {
              client->admit_us.push_back(served.query.latency_ms * 1e3);
            }
            if (traced && ProbedRequest(k)) {
              Probe(*service, served, client, trace_id);
            }
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    Window window;
    window.seconds = SecondsSince(start);
    for (size_t c = 0; c < data.clients.size(); ++c) {
      const std::vector<double>& us = data.clients[c]->query_us;
      window.us.insert(window.us.end(), us.begin() + first_sample[c],
                       us.end());
    }
    windows.push_back(std::move(window));
    data.rejected += service->scheduler_stats().rejected - rejected_before;
    Accumulate(&data.context, watch.Since(*service));
    records.push_back(std::move(round_records));
  }

  // Uncached references, outside the timed and set-up intervals.
  std::vector<ColdRecord*> all;
  for (auto& round_records : records) {
    for (ColdRecord& record : round_records) all.push_back(&record);
  }
  std::vector<uint8_t> correct(all.size(), 0);
  ParallelFor(all.size(), [&](size_t i) {
    const ColdRecord& record = *all[i];
    const Tenant& tenant = *record.tenant;
    const Answer reference = ReferenceAnswer(
        BuildKb(tenant.kb_text, tenant.declare), tenant.query, record.options);
    correct[i] = record.ok && SameAnswer(record.answer, reference) &&
                 WireMatches(record.response, record.id, tenant.name,
                             record.version, AnswerBody(reference));
  });
  // Attribute each pair's outcome to the client tallies (one per pair).
  Client* tally = data.clients[0].get();
  for (uint8_t ok : correct) tally->Count(ok != 0);
  std::map<std::string, uint64_t> failed_by_family;
  for (size_t i = 0; i < all.size(); ++i) {
    if (!correct[i]) ++failed_by_family[all[i]->tenant->family];
  }
  for (const auto& [family, count] : failed_by_family) {
    report.lines.push_back("check: " + std::to_string(count) + " " + family +
                           " answers differ from the uncached reference");
  }

  MergeClients(data.clients, &report, nullptr);
  AddQueryMetrics(Median(setups), std::move(windows), true, &report);
  PlanTally plans;
  for (const auto& client : data.clients) plans.Merge(client->plans);
  const double answers = static_cast<double>(plans.answers);
  for (int s = 0; s < kNumStrategies; ++s) {
    Share(&report, std::string("cold_generated.final.") + kStrategies[s],
          Frac(static_cast<double>(plans.finals[s]), answers),
          "queries this strategy finalized");
  }
  Share(&report, "cold_generated.undefined",
        Frac(static_cast<double>(plans.undefined), answers),
        "queries answered undefined");
  std::map<std::string, uint64_t> families;
  for (const ColdRecord* record : all) ++families[record->tenant->family];
  for (const auto& [family, count] : families) {
    Share(&report, "cold_generated.family." + family,
          Frac(static_cast<double>(count), static_cast<double>(all.size())),
          "pairs from this generator family");
  }
  if (config.trace) AddLayerMetrics(config, data, &report);
  return report;
}

// ---- paper_corpus ----

Report PaperCorpus(const Config& config) {
  Report report;
  ServiceOptions options;  // the unmodified defaults...
  options.scheduler.num_threads = config.workers;  // ...but a fixed pool
  std::vector<Tenant> tenants = PaperTenants(false);

  LayerData data;
  data.schedule_points = SchedulePoints(options.inference);
  data.clients.push_back(std::make_unique<Client>(config.trace));
  Client& client = *data.clients.front();
  std::unique_ptr<KbService> service;
  const double setup_s =
      SetUpServices(options, tenants, &service, &client, [](int) {});
  const std::vector<size_t> order = QueryOrder(config, tenants.size());
  std::vector<double> queries;
  std::vector<std::vector<double>> example_ms(tenants.size());
  std::vector<Answer> cold(tenants.size());
  std::vector<double> warm_passes;
  double cold_pass = 0.0;
  double warm_total = 0.0;
  uint64_t seq = 0;
  // Traced runs trace each example in every other pass, so the warm passes
  // compare every example traced and untraced (trace.overhead_frac).
  std::vector<double> traced_ms(tenants.size()), untraced_ms(tenants.size());
  // One cold pass, then at least three warm passes (so the median query is
  // a warm one in every run) and more while the run's seconds last.
  constexpr int kMinWarmPasses = 3;
  for (int pass = 0; pass <= kMinWarmPasses || warm_total < config.seconds;
       ++pass) {
    double pass_s = 0.0;
    for (size_t t : order) {
      const Tenant& tenant = tenants[t];
      const bool traced =
          config.trace && (t + static_cast<size_t>(pass)) % 2 == 0;
      client.tracer.set_active(traced);
      Served served;
      const double us = ServeTimed(
          *service, WithId(client.next_id++, QuerySuffix(tenant)), &client,
          seq, &served);
      queries.push_back(us);
      pass_s += us / 1e6;
      example_ms[t].push_back(us / 1e3);
      const Answer& answer = served.query.answer;
      bool ok = served.query.ok && served.query.snapshot != nullptr &&
                PaperRuleHolds(*tenant.example, answer) &&
                WireMatches(served.response, served.request.id, tenant.name,
                            served.query.snapshot->version, AnswerBody(answer));
      if (pass == 0) {
        cold[t] = answer;
      } else {
        ok = ok && SameAnswer(answer, cold[t]);
      }
      client.Count(ok);
      client.plans.Add(answer, data.schedule_points);
      if (config.trace && pass > 0) {
        (traced ? traced_ms : untraced_ms)[t] += us / 1e3;
      }
      if (traced) {
        client.admit_us.push_back(served.query.latency_ms * 1e3);
        if (ProbedRequest(seq)) Probe(*service, served, &client, seq);
      }
      if (!ok) {
        report.lines.push_back("check: " + tenant.name + " pass " +
                               std::to_string(pass) + " answer " +
                               served.response + " fails the check");
      }
      ++seq;
    }
    if (pass == 0) {
      cold_pass = pass_s;
    } else {
      warm_passes.push_back(pass_s);
      warm_total += pass_s;
    }
  }
  // Per-example ratios, so E5.24's seconds do not outweigh the rest.
  for (size_t t = 0; t < tenants.size(); ++t) {
    if (traced_ms[t] > 0.0 && untraced_ms[t] > 0.0) {
      client.traced_us.push_back(traced_ms[t] / untraced_ms[t]);
      client.untraced_us.push_back(1.0);
    }
  }
  report.attempted += client.attempted;
  report.failed += client.failed;
  AddQueryMetrics(setup_s, {Window{cold_pass + warm_total, queries}}, false,
                  &report);
  report.end_to_end.push_back({"cold_pass_s", cold_pass, "s"});
  report.end_to_end.push_back({"warm_pass_s", Median(warm_passes), "s"});
  report.end_to_end.push_back(
      {"warm_passes", static_cast<double>(warm_passes.size()), "count"});
  for (size_t t = 0; t < tenants.size(); ++t) {
    std::vector<double> warm(example_ms[t].begin() + 1, example_ms[t].end());
    char row[256];
    std::snprintf(row, sizeof(row),
                  "example %-16s cold_ms=%.3f warm_ms=%.3f %s",
                  tenants[t].name.c_str(), example_ms[t][0], Median(warm),
                  rwl::StatusToString(cold[t].status).c_str());
    report.lines.push_back(row);
  }
  if (config.trace) {
    data.rejected = service->scheduler_stats().rejected;
    for (auto& head : service->Heads()) {
      const auto stats = head->context->cache_stats();
      data.context.finite_hits += stats.finite_hits;
      data.context.finite_misses += stats.finite_misses;
      data.context.blob_hits += stats.blob_hits;
      data.context.blob_misses += stats.blob_misses;
      data.context.blob_bytes += stats.blob_bytes;
    }
    AddLayerMetrics(config, data, &report);
  }
  return report;
}

// Digest of every input `config`'s workload sends, with `pairs` pairs per
// cold_generated round.
uint64_t DigestOf(const Config& config, int pairs) {
  std::vector<std::string> parts = {config.workload};
  auto add_order = [&](const std::vector<size_t>& order) {
    std::string text;
    for (size_t i : order) text += std::to_string(i) + ",";
    parts.push_back(text);
  };
  std::vector<Tenant> tenants;
  if (config.workload == "cold_generated") {
    tenants = GeneratePairs(config.seed, 0, pairs);
    add_order(PairOrder(config, tenants.size(), 0));
  } else {
    tenants = PaperTenants(config.workload == "durable_mixed");
    if (config.workload == "warm_readonly") {
      for (int c = 0; c < config.clients; ++c) {
        add_order(ClientOrder(config, tenants.size(), c));
      }
    } else {
      add_order(QueryOrder(config, tenants.size()));
    }
    if (config.workload == "durable_mixed") {
      size_t mutable_tenants = 0;
      for (const Tenant& tenant : tenants) {
        if (!tenant.marker.empty()) ++mutable_tenants;
      }
      add_order(MutationOrder(config, mutable_tenants));
      parts.push_back(std::to_string(MutationPhase(config)));
    }
  }
  for (const Tenant& tenant : tenants) {
    parts.push_back(LoadLine(0, tenant));
    parts.push_back(QuerySuffix(tenant));
  }
  return Digest(parts);
}

}  // namespace

uint64_t InputDigest(const Config& config) {
  return DigestOf(config, kPairs);
}

std::string SelfTest(const Config& config) {
  // Injected faults must count as failures.
  std::vector<Tenant> tenants = PaperTenants(false);
  tenants.resize(1);
  ServiceOptions options;
  options.scheduler.num_threads = 1;
  options.inference = CappedSweep();
  ComputeReferences(&tenants, options.inference);
  KbService service(options);
  Client client(false);
  LoadAll(service, tenants, &client);
  const Tenant& tenant = tenants[0];
  Served served;
  Serve(service, WithId(client.next_id++, QuerySuffix(tenant)), &client, 0,
        &served);
  client.Count(QueryCorrect(served, tenant, 0));
  // A wrong answer: the reference moved by one ulp.
  Tenant wrong = tenant;
  wrong.expected[0].value = std::nextafter(wrong.expected[0].value, 2.0);
  client.Count(QueryCorrect(served, wrong, 0));
  // A wrong wire encoding of the right answer.
  Served garbled = served;
  garbled.response.insert(garbled.response.size() - 1, " ");
  client.Count(QueryCorrect(garbled, tenant, 0));
  // A refused request: the tenant does not exist.
  Tenant missing = tenant;
  missing.name = "no_such_kb";
  Served refused;
  Serve(service, WithId(client.next_id++, QuerySuffix(missing)), &client, 0,
        &refused);
  client.Count(QueryCorrect(refused, missing, 0));
  if (client.attempted != 4 || client.failed != 3) {
    return "injected faults: " + std::to_string(client.failed) + " of " +
           std::to_string(client.attempted) + " counted as failed, want 3 of 4";
  }
  // The trace check: a request whose child spans leave a 2-ms gap must
  // fail it, and one they cover must pass.
  for (const bool gap : {false, true}) {
    Tracer tracer(true);
    const int root = tracer.Begin(1, Layer::kRequest, -1);
    const int child = tracer.Begin(1, Layer::kQuery, root);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    tracer.End(child);
    if (gap) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    tracer.End(root);
    if (TraceCovers(Summarize({&tracer})) == gap) {
      return gap ? "an uncovered gap in a request passed the trace check"
                 : "a covered request failed the trace check";
    }
  }
  // Input digests follow the seed.
  for (const std::string& workload : WorkloadNames()) {
    Config probe = config;
    probe.workload = workload;
    const uint64_t first = DigestOf(probe, 64);
    const uint64_t again = DigestOf(probe, 64);
    ++probe.seed;
    const uint64_t other = DigestOf(probe, 64);
    if (first != again || first == other) {
      return "input digest of " + workload + " does not follow the seed";
    }
  }
  return "";
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "warm_readonly", "cold_generated", "durable_mixed", "paper_corpus"};
  return names;
}

Report RunWorkload(const Config& config) {
  const int cpu = PinToOneCpu();
  const IdleSpinner spinner;
  Report report;
  if (config.workload == "warm_readonly") {
    report = WarmReadonly(config);
  } else if (config.workload == "cold_generated") {
    report = ColdGenerated(config);
  } else if (config.workload == "durable_mixed") {
    report = DurableMixed(config);
  } else if (config.workload == "paper_corpus") {
    report = PaperCorpus(config);
  } else {
    throw std::runtime_error("unknown workload " + config.workload);
  }
  report.end_to_end.push_back(
      {"ops_failed_frac",
       Frac(static_cast<double>(report.failed),
            static_cast<double>(report.attempted)),
       "frac"});
  report.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  report.lines.push_back("placement: clients and service threads on CPU " +
                         std::to_string(cpu) + " of " +
                         std::to_string(CPU_COUNT(&AllowedCpus())) +
                         " allowed");
  return report;
}

}  // namespace perfbench
