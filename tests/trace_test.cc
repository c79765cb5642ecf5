// Tests for the trace recorder and its span machinery. These run in their
// own binary so toggling the global enable flag cannot leak into other
// suites.

#include <gtest/gtest.h>

#include <string>

#include "common/trace.h"

namespace parqo {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    TraceRecorder::Global().SetEnabled(false);
    TraceRecorder::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.SetEnabled(false);
  rec.Clear();
  { TraceSpan span("invisible", "test"); }
  EXPECT_EQ(rec.NumEvents(), 0u);
}

TEST_F(TraceTest, SpanRecordsOnDestruction) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);
  {
    TraceSpan span("phase/test", "test");
    EXPECT_EQ(rec.NumEvents(), 0u);  // only complete spans are recorded
  }
  ASSERT_EQ(rec.NumEvents(), 1u);
  { TraceSpan span("phase/other"); }
  EXPECT_EQ(rec.NumEvents(), 2u);
  rec.Clear();
  EXPECT_EQ(rec.NumEvents(), 0u);
}

TEST_F(TraceTest, SpanStartedWhileDisabledStaysInert) {
  // Enable state is latched at construction: a span created before
  // SetEnabled(true) must not record a bogus zero timestamp later.
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(false);
  {
    TraceSpan span("latched", "test");
    rec.SetEnabled(true);
  }
  EXPECT_EQ(rec.NumEvents(), 0u);
}

TEST_F(TraceTest, ChromeJsonEnvelope) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Clear();
  rec.SetEnabled(true);
  rec.Record("op \"quoted\"\\", "test", 10, 5);
  std::string json = rec.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // Name must be escaped, not emitted raw.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 5"), std::string::npos);
}

}  // namespace
}  // namespace parqo
