// Unit tests for the rwld wire protocol (src/service/protocol.h): request
// decoding for every op, rejection of malformed lines with an error (never
// a crash), and response lines that re-parse as the JSON they claim to be.
#include "src/service/protocol.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rwl::service {
namespace {

Request MustParse(const std::string& line) {
  Request request;
  std::string error;
  EXPECT_TRUE(ParseRequest(line, &request, &error)) << line << ": " << error;
  return request;
}

// Parses `line` expecting failure; returns the error message.
std::string MustReject(const std::string& line) {
  Request request;
  std::string error;
  EXPECT_FALSE(ParseRequest(line, &request, &error)) << line;
  EXPECT_FALSE(error.empty()) << line;
  return error;
}

Json MustParseJson(const std::string& text) {
  Json json;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &json, &error)) << text << ": " << error;
  EXPECT_EQ(json.type, Json::Type::kObject) << text;
  return json;
}

// The named field of a response object; a null value (and a test failure)
// when it is missing.
const Json& Field(const Json& json, const std::string& key) {
  static const Json kMissing;
  const Json* field = json.Find(key);
  if (field == nullptr) {
    ADD_FAILURE() << "missing field '" << key << "'";
    return kMissing;
  }
  return *field;
}

TEST(ProtocolParseRequest, Load) {
  Request r = MustParse(
      R"j({"id":1,"op":"LOAD","kb":"med","text":"Jaun(Eric)\nHep(Tom)",)j"
      R"j("declare":["Eric","Tom"]})j");
  EXPECT_EQ(r.op, Request::Op::kLoad);
  EXPECT_EQ(r.id, 1);
  EXPECT_EQ(r.kb, "med");
  EXPECT_EQ(r.text, "Jaun(Eric)\nHep(Tom)");
  EXPECT_EQ(r.declare, (std::vector<std::string>{"Eric", "Tom"}));
}

TEST(ProtocolParseRequest, AssertAndRetract) {
  Request a = MustParse(R"j({"id":2,"op":"ASSERT","kb":"med","text":"P(C)"})j");
  EXPECT_EQ(a.op, Request::Op::kAssert);
  EXPECT_EQ(a.kb, "med");
  EXPECT_EQ(a.text, "P(C)");
  Request r =
      MustParse(R"j({"id":3,"op":"RETRACT","kb":"med","text":"P(C)"})j");
  EXPECT_EQ(r.op, Request::Op::kRetract);
  EXPECT_EQ(r.id, 3);
  EXPECT_EQ(r.text, "P(C)");
}

TEST(ProtocolParseRequest, QueryWithEveryOption) {
  Request r = MustParse(
      R"j({"id":4,"op":"QUERY","kb":"med","q":"Hep(Eric)","deadline_ms":50,)j"
      R"j("budget":1e7,"plan":"cost","fixed_n":12,"engine":"gmp90",)j"
      R"j("interval":0.9,"min_version":12})j");
  EXPECT_EQ(r.op, Request::Op::kQuery);
  EXPECT_EQ(r.kb, "med");
  EXPECT_EQ(r.query, "Hep(Eric)");
  EXPECT_EQ(r.options.deadline_ms, 50.0);
  EXPECT_EQ(r.options.work_budget, 1e7);
  EXPECT_EQ(r.options.plan, "cost");
  EXPECT_EQ(r.options.fixed_domain_size, 12);
  EXPECT_EQ(r.options.engine, "gmp90");
  EXPECT_EQ(r.options.interval_confidence, 0.9);
  EXPECT_EQ(r.options.min_version, 12u);
}

TEST(ProtocolParseRequest, QueryDefaultsLeaveOptionsUnset) {
  Request r = MustParse(R"j({"op":"QUERY","kb":"med","q":"Hep(Eric)"})j");
  EXPECT_EQ(r.id, 0);
  EXPECT_EQ(r.options.deadline_ms, 0.0);
  EXPECT_EQ(r.options.work_budget, 0.0);
  EXPECT_TRUE(r.options.plan.empty());
  EXPECT_TRUE(r.options.engine.empty());
  EXPECT_EQ(r.options.interval_confidence, 0.0);
  EXPECT_EQ(r.options.min_version, 0u);
}

TEST(ProtocolParseRequest, Batch) {
  Request r = MustParse(
      R"j({"id":5,"op":"BATCH","kb":"med",)j"
      R"j("queries":["Hep(Eric)","Jaun(Eric)"]})j");
  EXPECT_EQ(r.op, Request::Op::kBatch);
  EXPECT_EQ(r.queries, (std::vector<std::string>{"Hep(Eric)", "Jaun(Eric)"}));
}

TEST(ProtocolParseRequest, StatsShutdownTailWait) {
  EXPECT_EQ(MustParse(R"j({"id":6,"op":"STATS"})j").op, Request::Op::kStats);
  EXPECT_EQ(MustParse(R"j({"id":7,"op":"SHUTDOWN"})j").op,
            Request::Op::kShutdown);
  EXPECT_EQ(MustParse(R"j({"id":8,"op":"TAIL"})j").op, Request::Op::kTail);
  Request wait =
      MustParse(R"j({"id":9,"op":"WAIT","kb":"med","min_version":12})j");
  EXPECT_EQ(wait.op, Request::Op::kWait);
  EXPECT_EQ(wait.kb, "med");
  EXPECT_EQ(wait.options.min_version, 12u);
}

TEST(ProtocolParseRequest, StringEscapesDecode) {
  Request r = MustParse(
      R"j({"op":"ASSERT","kb":"k\"b",)j"
      R"j("text":"a\\b\/c\n\t\u0041\u00e9\ud83d\ude00"})j");
  EXPECT_EQ(r.kb, "k\"b");
  // \u escapes decode to UTF-8; a surrogate pair to one code point.
  EXPECT_EQ(r.text, "a\\b/c\n\tA\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(ProtocolMalformed, TruncatedJson) {
  for (const char* line : {
           "",
           "{",
           R"j({"op":)j",
           R"j({"op":"QUERY")j",
           R"j({"op":"STATS",)j",
           R"j({"op":"QUERY","kb":"med","q":"P)j",
           R"j({"op":"BATCH","kb":"m","queries":[)j",
           R"j({"op":"ASSERT","kb":"m","text":"\)j",
           R"j({"op":"ASSERT","kb":"m","text":"\u00)j",
       }) {
    MustReject(line);
  }
}

TEST(ProtocolMalformed, NotAnObjectOrTrailingContent) {
  MustReject(R"j(["STATS"])j");
  MustReject("42");
  MustReject(R"j({"op":"STATS"} {"op":"STATS"})j");
  MustReject(R"j({"op":"STATS"}x)j");
}

TEST(ProtocolMalformed, UnknownOrMissingOp) {
  EXPECT_NE(MustReject(R"j({"id":1,"op":"DROP"})j").find("unknown op"),
            std::string::npos);
  MustReject(R"j({"id":1})j");
  MustReject(R"j({"id":1,"op":7})j");
  MustReject(R"j({"id":1,"op":"query","kb":"m","q":"P(C)"})j");
}

TEST(ProtocolMalformed, WrongFieldTypes) {
  MustReject(R"j({"op":"QUERY","kb":1,"q":"P(C)"})j");
  MustReject(R"j({"op":"QUERY","kb":"m","q":["P(C)"]})j");
  MustReject(R"j({"op":"LOAD","kb":"m","text":"P(C)","declare":"C"})j");
  MustReject(R"j({"op":"LOAD","kb":"m","text":"P(C)","declare":["C",1]})j");
  MustReject(R"j({"op":"BATCH","kb":"m","queries":"P(C)"})j");
  MustReject(R"j({"op":"BATCH","kb":"m","queries":[]})j");
  MustReject(R"j({"op":"BATCH","kb":"m","queries":["P(C)",null]})j");
  MustReject(R"j({"op":"QUERY","kb":"m","q":"P(C)","plan":"fastest"})j");
  MustReject(R"j({"op":"QUERY","kb":"m","q":"P(C)","plan":1})j");
  MustReject(R"j({"op":"QUERY","kb":"m","q":"P(C)","engine":""})j");
  MustReject(R"j({"op":"QUERY","kb":"m","q":"P(C)","engine":3})j");
  MustReject(R"j({"op":"QUERY","kb":"m","q":"P(C)","interval":1.5})j");
  MustReject(R"j({"op":"QUERY","kb":"m","q":"P(C)","interval":"0.9"})j");
}

TEST(ProtocolMalformed, BadEscapes) {
  MustReject(R"j({"op":"ASSERT","kb":"m","text":"\x41"})j");
  MustReject(R"j({"op":"ASSERT","kb":"m","text":"\uZZZZ"})j");
  MustReject(R"j({"op":"ASSERT","kb":"m","text":"\ud83d"})j");
  MustReject(R"j({"op":"ASSERT","kb":"m","text":"\ud83dA"})j");
  MustReject(R"j({"op":"ASSERT","kb":"m","text":"\ude00"})j");
}

TEST(ProtocolMalformed, MissingKbOrPayload) {
  for (const char* line : {
           R"j({"op":"LOAD","text":"P(C)"})j",
           R"j({"op":"ASSERT","text":"P(C)"})j",
           R"j({"op":"RETRACT","text":"P(C)"})j",
           R"j({"op":"QUERY","q":"P(C)"})j",
           R"j({"op":"BATCH","queries":["P(C)"]})j",
           R"j({"op":"WAIT","min_version":3})j",
       }) {
    EXPECT_NE(MustReject(line).find("'kb'"), std::string::npos) << line;
  }
  MustReject(R"j({"op":"LOAD","kb":"m"})j");
  MustReject(R"j({"op":"ASSERT","kb":"m"})j");
  MustReject(R"j({"op":"QUERY","kb":"m"})j");
  MustReject(R"j({"op":"WAIT","kb":"m"})j");
}

TEST(ProtocolMalformed, DeepNestingIsRejectedNotRecursedInto) {
  std::string line = R"j({"op":"STATS","x":)j" + std::string(10000, '[');
  MustReject(line);
}

TEST(ProtocolResponses, ErrorResponseReparses) {
  Json json = MustParseJson(ErrorResponse(7, "bad \"text\"\nline\\2"));
  EXPECT_EQ(Field(json, "id").number, 7.0);
  EXPECT_FALSE(Field(json, "ok").boolean);
  EXPECT_EQ(Field(json, "error").string, "bad \"text\"\nline\\2");
}

TEST(ProtocolResponses, MutationResponseReparses) {
  KbService::MutationResult ok;
  ok.ok = true;
  ok.version = 12;
  Json json = MustParseJson(MutationResponse(3, "m\"ed", ok));
  EXPECT_EQ(Field(json, "id").number, 3.0);
  EXPECT_TRUE(Field(json, "ok").boolean);
  EXPECT_EQ(Field(json, "kb").string, "m\"ed");
  EXPECT_EQ(Field(json, "version").number, 12.0);

  KbService::MutationResult failed;
  failed.error = "unknown KB 'x'";
  Json error = MustParseJson(MutationResponse(4, "x", failed));
  EXPECT_FALSE(Field(error, "ok").boolean);
  EXPECT_EQ(Field(error, "error").string, "unknown KB 'x'");
}

TEST(ProtocolResponses, QueryResponseReparses) {
  KbService::QueryResult point;
  point.ok = true;
  point.answer.status = Answer::Status::kPoint;
  point.answer.value = 0.8;
  point.answer.method = "symbolic \"direct\" inference";
  point.answer.converged = true;
  point.latency_ms = 0.41;
  Json json = MustParseJson(QueryResponse(4, point));
  EXPECT_EQ(Field(json, "id").number, 4.0);
  EXPECT_TRUE(Field(json, "ok").boolean);
  EXPECT_EQ(Field(json, "status").string, "point");
  EXPECT_EQ(Field(json, "value").number, 0.8);
  EXPECT_EQ(Field(json, "method").string, "symbolic \"direct\" inference");
  EXPECT_TRUE(Field(json, "converged").boolean);
  EXPECT_EQ(Field(json, "latency_ms").number, 0.41);

  KbService::QueryResult interval;
  interval.ok = true;
  interval.answer.status = Answer::Status::kInterval;
  interval.answer.lo = 2.6e-05;
  interval.answer.hi = 0.5;
  Json bounds = MustParseJson(QueryResponse(5, interval));
  EXPECT_EQ(Field(bounds, "status").string, "interval");
  EXPECT_EQ(Field(bounds, "lo").number, 2.6e-05);
  EXPECT_EQ(Field(bounds, "hi").number, 0.5);

  KbService::QueryResult unknown;
  unknown.ok = true;
  unknown.answer.status = Answer::Status::kUnknown;
  unknown.answer.explanation = "work budget\texhausted";
  Json explained = MustParseJson(QueryResponse(6, unknown));
  EXPECT_EQ(Field(explained, "explanation").string, "work budget\texhausted");

  KbService::QueryResult overloaded;
  overloaded.error = "overloaded";
  Json error = MustParseJson(QueryResponse(7, overloaded));
  EXPECT_FALSE(Field(error, "ok").boolean);
  EXPECT_EQ(Field(error, "error").string, "overloaded");
}

}  // namespace
}  // namespace rwl::service
