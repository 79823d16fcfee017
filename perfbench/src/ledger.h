// Timing, percentiles and the span tracer of the rwl benchmark.
//
// Spans are recorded only here, around the benchmark's own calls into the
// library's public functions (ParseRequest, KbService::Query, ...).  Each
// client thread owns one Tracer, so recording takes no lock; the spans stay
// in memory and are summarised (and optionally written out) when the run
// ends.
#ifndef PERFBENCH_SRC_LEDGER_H_
#define PERFBENCH_SRC_LEDGER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Linear interpolation between closest ranks; sorts `values` in place.
inline double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double index = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(index);
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = index - static_cast<double>(lo);
  return (*values)[lo] * (1.0 - frac) + (*values)[hi] * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(&values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// The layers a span can name.  The request path: a root `request` span
// with decode / service call / encode children.  The probe path (traced
// runs only, after the request completes): parse, pin and a bare
// AnswerOnSnapshot on the request's pinned snapshot, so the scheduler hop
// can be separated from the work it dispatches.
enum class Layer : uint8_t {
  kRequest,
  kDecode,
  kQuery,
  kMutation,
  kEncode,
  kProbe,
  kParse,
  kPin,
  kAnswer,
};

inline const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "request";
    case Layer::kDecode: return "protocol.decode";
    case Layer::kQuery: return "service.query";
    case Layer::kMutation: return "service.mutation";
    case Layer::kEncode: return "protocol.encode";
    case Layer::kProbe: return "probe";
    case Layer::kParse: return "logic.parse";
    case Layer::kPin: return "catalog.pin";
    case Layer::kAnswer: return "engine.answer_on_snapshot";
  }
  return "?";
}

struct Span {
  uint64_t request = 0;  // shared by every span of one request
  int32_t parent = -1;   // index into the owning tracer's spans, -1 = root
  Layer layer = Layer::kRequest;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  // Requests served while inactive record no spans (the untraced half of a
  // traced run).
  void set_active(bool active) { active_ = active; }

  // Opens a span and returns its handle (-1 when not recording).
  int Begin(uint64_t request, Layer layer, int parent) {
    if (!enabled_ || !active_) return -1;
    spans_.push_back(Span{request, parent, layer, NowNs(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int handle) {
    if (handle >= 0) spans_[static_cast<size_t>(handle)].end_ns = NowNs();
  }
  double DurationUs(int handle) const {
    if (handle < 0) return 0.0;
    const Span& span = spans_[static_cast<size_t>(handle)];
    return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  bool active_ = true;
  std::vector<Span> spans_;
};

// Per-layer totals over many tracers.  Self time of a span is its duration
// minus the durations of its children (children of one span never overlap:
// each tracer belongs to one sequential client).
struct LayerTotals {
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

// The most of a request's time its child spans may leave uncovered before
// the trace no longer accounts for the request ("within a few percent").
constexpr double kMaxUncoveredFrac = 0.05;

struct TraceSummary {
  std::map<std::string, LayerTotals> layers;
  // Over `request` roots: the root's own self time (request time no decode,
  // service or encode span covers) against the root's duration.
  double request_uncovered_frac = 0.0;
  uint64_t requests = 0;
};

inline TraceSummary Summarize(const std::vector<const Tracer*>& tracers) {
  TraceSummary summary;
  double root_us = 0.0;
  double uncovered_us = 0.0;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_us[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double dur = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
      const double self = dur - child_us[i];
      LayerTotals& totals = summary.layers[LayerName(span.layer)];
      ++totals.count;
      totals.total_us += dur;
      totals.self_us += self;
      if (span.parent < 0 && span.layer == Layer::kRequest) {
        root_us += dur;
        uncovered_us += self;
        ++summary.requests;
      }
    }
  }
  summary.request_uncovered_frac = root_us > 0.0 ? uncovered_us / root_us : 0.0;
  return summary;
}

// Whether the child spans account for the requests' time.
inline bool TraceCovers(const TraceSummary& summary) {
  return summary.request_uncovered_frac <= kMaxUncoveredFrac;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LEDGER_H_
