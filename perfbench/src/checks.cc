#include "perfbench/src/checks.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/logic/parser.h"

namespace perfbench {

using rwl::Answer;
using rwl::fixtures::PaperExample;

bool PaperRuleHolds(const PaperExample& example, const Answer& answer) {
  const bool numeric = answer.status == Answer::Status::kPoint ||
                       answer.status == Answer::Status::kInterval;
  switch (example.expect) {
    case PaperExample::Expect::kPoint:
      return numeric &&
             std::fabs(answer.lo - example.value) <= example.tolerance &&
             std::fabs(answer.hi - example.value) <= example.tolerance;
    case PaperExample::Expect::kInterval:
      return numeric && answer.lo >= example.lo - example.tolerance &&
             answer.hi <= example.hi + example.tolerance;
    case PaperExample::Expect::kNonexistent:
      return answer.status == Answer::Status::kNonexistent;
    case PaperExample::Expect::kUndefined:
      return answer.status == Answer::Status::kUndefined;
  }
  return false;
}

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

bool SameAnswer(const Answer& a, const Answer& b) {
  return a.status == b.status && SameBits(a.value, b.value) &&
         SameBits(a.lo, b.lo) && SameBits(a.hi, b.hi) &&
         a.converged == b.converged && a.method == b.method;
}

std::string AnswerBody(const Answer& answer) {
  rwl::service::KbService::QueryResult result;
  result.ok = true;
  result.answer = answer;
  const std::string json = rwl::service::AnswerJson(result);
  const size_t begin = json.find(",\"status\"");
  const size_t end = json.rfind(",\"latency_ms\"");
  return json.substr(begin, end - begin);
}

bool WireMatches(const std::string& response, int64_t id,
                 const std::string& kb, uint64_t version,
                 const std::string& body) {
  const std::string head = "{\"id\":" + std::to_string(id) +
                           ",\"ok\":true,\"kb\":\"" +
                           rwl::service::JsonEscape(kb) + "\",\"version\":" +
                           std::to_string(version);
  static const char kLatency[] = ",\"latency_ms\":";
  const size_t latency_at = head.size() + body.size();
  if (response.size() <= latency_at + sizeof(kLatency) ||
      response.compare(0, head.size(), head) != 0 ||
      response.compare(head.size(), body.size(), body) != 0 ||
      response.compare(latency_at, sizeof(kLatency) - 1, kLatency) != 0) {
    return false;
  }
  // The latency is one number, then the closing brace ends the line.
  const char* number = response.c_str() + latency_at + sizeof(kLatency) - 1;
  char* end = nullptr;
  std::strtod(number, &end);
  return end != number && end == response.c_str() + response.size() - 1 &&
         *end == '}';
}

rwl::KnowledgeBase BuildKb(const std::string& text,
                           const std::vector<std::string>& declare) {
  rwl::KnowledgeBase kb;
  kb.AddParsed(text);
  for (const std::string& constant : declare) {
    kb.mutable_vocabulary().AddConstant(constant);
  }
  return kb;
}

Answer ReferenceAnswer(const rwl::KnowledgeBase& kb, const std::string& query,
                       rwl::InferenceOptions options) {
  rwl::logic::ParseResult parsed = rwl::logic::ParseFormula(query);
  if (!parsed.ok()) {
    Answer failed;
    failed.explanation = "reference parse error: " + parsed.error;
    return failed;
  }
  options.enable_caching = false;
  return rwl::DegreeOfBelief(kb, parsed.formula, options);
}

uint64_t Digest(const std::vector<std::string>& parts) {
  uint64_t hash = 1469598103934665603ull;
  for (const std::string& part : parts) {
    for (unsigned char c : part) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
    hash ^= 0xff;  // separator, so ("ab","c") != ("a","bc")
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
