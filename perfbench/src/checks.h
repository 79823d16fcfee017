// Answer verification for the rwl benchmark.
//
// Every answer a workload receives is checked here, outside the timed
// intervals: against the paper's reported value (the rule of
// tests/fixtures_test.cc), bit for bit against an uncached reference, and
// on the wire (the encoded response must carry exactly the reference
// answer).  A failed, refused or wrong answer counts toward
// ops_failed_frac.
#ifndef PERFBENCH_SRC_CHECKS_H_
#define PERFBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/inference.h"
#include "src/fixtures/paper_kbs.h"
#include "src/service/protocol.h"

namespace perfbench {

// tests/fixtures_test.cc's rule and tolerances for one paper example.
bool PaperRuleHolds(const rwl::fixtures::PaperExample& example,
                    const rwl::Answer& answer);

// Bit-identical status, value, bounds, method and convergence flag.
bool SameAnswer(const rwl::Answer& a, const rwl::Answer& b);

// The part of an encoded QUERY response that depends only on the answer:
// everything from `,"status"` up to (not including) `,"latency_ms"`.
std::string AnswerBody(const rwl::Answer& answer);

// True when `response` is the encoding of a successful answer with this
// id, tenant, pinned version and answer body.
bool WireMatches(const std::string& response, int64_t id,
                 const std::string& kb, uint64_t version,
                 const std::string& body);

// The KB a LOAD of (text, declare) installs, built outside the service.
rwl::KnowledgeBase BuildKb(const std::string& text,
                           const std::vector<std::string>& declare);

// The uncached reference answer for `query` on `kb` under `options`.
rwl::Answer ReferenceAnswer(const rwl::KnowledgeBase& kb,
                            const std::string& query,
                            rwl::InferenceOptions options);

// FNV-1a over a sequence of strings (the input digest).
uint64_t Digest(const std::vector<std::string>& parts);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECKS_H_
