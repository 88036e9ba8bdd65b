#include "core/audit_log.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace mysawh::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset MakeData(int rows, int features, uint64_t seed) {
  std::vector<std::string> names;
  for (int f = 0; f < features; ++f) {
    names.push_back(std::string("f").append(std::to_string(f)));
  }
  Dataset data = Dataset::Create(names);
  uint64_t state = seed;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) /
           static_cast<double>(uint64_t{1} << 53);
  };
  for (int r = 0; r < rows; ++r) {
    std::vector<double> row(static_cast<size_t>(features));
    for (auto& v : row) {
      const double u = next();
      v = u < 0.1 ? kNaN : u;
    }
    EXPECT_TRUE(data.AddRow(row, 0.0).ok());
  }
  return data;
}

TEST(HashRowTest, NanPayloadsHashIdentically) {
  // JSON cannot preserve NaN payloads, so the fingerprint must not depend
  // on them — any NaN hashes as the canonical quiet NaN.
  const double a[] = {1.0, std::nan("1"), 3.0};
  const double b[] = {1.0, std::nan("0x7ff"), 3.0};
  const double c[] = {1.0, std::numeric_limits<double>::quiet_NaN(), 3.0};
  EXPECT_EQ(HashRow(a, 3), HashRow(b, 3));
  EXPECT_EQ(HashRow(a, 3), HashRow(c, 3));
  const double d[] = {1.0, 2.0, 3.0};
  EXPECT_NE(HashRow(a, 3), HashRow(d, 3));
}

TEST(HashRowTest, SamplingIsAPureFunctionOfTheFingerprint) {
  EXPECT_TRUE(AuditSampled(12345, 1));
  EXPECT_TRUE(AuditSampled(32, 16));
  EXPECT_FALSE(AuditSampled(33, 16));
}

TEST(AuditLogTest, PredictRoundTripPreservesEveryField) {
  AuditLog& log = AuditLog::Global();
  AuditOptions options;
  options.sample_rate = 1;  // Keep every row.
  ASSERT_TRUE(log.Configure(options).ok());
  Dataset data = Dataset::Create({"a", "b"});
  ASSERT_TRUE(data.AddRow({1.5, kNaN}, 0.0).ok());
  ASSERT_TRUE(data.AddRow({-0.25, 1e-300}, 0.0).ok());
  log.RecordPredictBatch(0xabcdef, data, {0.75, kNaN});
  log.Disable();
  EXPECT_EQ(log.record_count(), 2);

  const AuditFile parsed = ParseAuditPayload(log.SerializePayload()).value();
  ASSERT_EQ(parsed.records.size(), 2u);
  for (const AuditRecord& record : parsed.records) {
    EXPECT_EQ(record.type, "predict");
    EXPECT_EQ(record.model_fp, 0xabcdefu);
    ASSERT_EQ(record.features.size(), 2u);
  }
  // Content sort orders by serialized text, not insertion order; find the
  // row by its first feature.
  const AuditRecord& first = parsed.records[0].features[0] == 1.5
                                 ? parsed.records[0]
                                 : parsed.records[1];
  const AuditRecord& second = &first == &parsed.records[0]
                                  ? parsed.records[1]
                                  : parsed.records[0];
  EXPECT_TRUE(std::isnan(first.features[1]));
  EXPECT_EQ(first.prediction, 0.75);
  EXPECT_EQ(second.features[1], 1e-300);
  EXPECT_TRUE(std::isnan(second.prediction));
}

TEST(HashRowTest, SampleKeyIsTheAvalanchedHashOfTheLeadingFeatures) {
  // The sampling decision runs for every row, so the key only reads the
  // first min(4, n) features (the full-row hash is reserved for the
  // fingerprint of sampled rows), avalanched so `key % rate` is unbiased.
  const double row[8] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  EXPECT_EQ(AuditSampleKey(row, 8), KeyAvalanche(HashRow(row, 4)));
  EXPECT_EQ(AuditSampleKey(row, 3), KeyAvalanche(HashRow(row, 3)));
  EXPECT_NE(AuditSampleKey(row, 8), KeyAvalanche(HashRow(row, 8)));
}

TEST(AuditLogTest, SamplingSelectsByContentFingerprint) {
  AuditLog& log = AuditLog::Global();
  AuditOptions options;
  options.sample_rate = 16;
  ASSERT_TRUE(log.Configure(options).ok());
  const Dataset data = MakeData(400, 4, 99);
  int64_t expected = 0;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    if (AuditSampled(AuditSampleKey(data.row(r), 4), 16)) ++expected;
  }
  ASSERT_GT(expected, 0) << "fixture must sample at least one row";
  ASSERT_LT(expected, data.num_rows());
  log.RecordPredictBatch(1, data, std::vector<double>(400, 0.5));
  log.Disable();
  EXPECT_EQ(log.record_count(), expected);
}

TEST(AuditLogTest, SerializationIsInsertionOrderInvariant) {
  const Dataset a = MakeData(64, 3, 7);
  const Dataset b = MakeData(64, 3, 8);
  const std::vector<double> preds(64, 0.25);
  AuditLog& log = AuditLog::Global();
  AuditOptions options;
  options.sample_rate = 1;
  ASSERT_TRUE(log.Configure(options).ok());
  log.RecordPredictBatch(5, a, preds);
  log.RecordPredictBatch(5, b, preds);
  const std::string forward = log.SerializePayload();
  ASSERT_TRUE(log.Configure(options).ok());  // Clears the buffer.
  log.RecordPredictBatch(5, b, preds);
  log.RecordPredictBatch(5, a, preds);
  const std::string reversed = log.SerializePayload();
  log.Disable();
  EXPECT_EQ(forward, reversed);
}

TEST(AuditLogTest, ShapRecordsKeepTopKByMagnitude) {
  AuditLog& log = AuditLog::Global();
  AuditOptions options;
  options.sample_rate = 1;
  options.top_k = 2;
  ASSERT_TRUE(log.Configure(options).ok());
  Dataset data = Dataset::Create({"a", "b", "c", "d"});
  ASSERT_TRUE(data.AddRow({1.0, 2.0, 3.0, 4.0}, 0.0).ok());
  log.RecordShapBatch(9, data, {{0.1, -0.5, 0.3, 0.2}});
  log.Disable();
  const AuditFile parsed = ParseAuditPayload(log.SerializePayload()).value();
  ASSERT_EQ(parsed.records.size(), 1u);
  const AuditRecord& record = parsed.records[0];
  EXPECT_EQ(record.type, "shap");
  ASSERT_EQ(record.shap.size(), 2u);
  EXPECT_EQ(record.shap[0].index, 1);
  EXPECT_EQ(record.shap[0].value, -0.5);
  EXPECT_EQ(record.shap[1].index, 2);
  EXPECT_EQ(record.shap[1].value, 0.3);
}

TEST(AuditLogTest, ConfigureValidation) {
  AuditLog& log = AuditLog::Global();
  AuditOptions bad_rate;
  bad_rate.sample_rate = 0;
  EXPECT_FALSE(log.Configure(bad_rate).ok());
  AuditOptions bad_top_k;
  bad_top_k.top_k = 0;
  EXPECT_FALSE(log.Configure(bad_top_k).ok());
  EXPECT_FALSE(AuditEnabled());
}

TEST(AuditParseTest, FingerprintGuardsRecordIntegrity) {
  // A record whose features were tampered with no longer hashes to its
  // fp — corrupt even though the JSON itself parses.
  AuditLog& log = AuditLog::Global();
  AuditOptions options;
  options.sample_rate = 1;
  ASSERT_TRUE(log.Configure(options).ok());
  Dataset data = Dataset::Create({"a"});
  ASSERT_TRUE(data.AddRow({2.0}, 0.0).ok());
  log.RecordPredictBatch(1, data, {0.5});
  log.Disable();
  std::string payload = log.SerializePayload();
  ASSERT_TRUE(ParseAuditPayload(payload).ok());
  const size_t pos = payload.find("\"features\":[2]");
  ASSERT_NE(pos, std::string::npos);
  payload.replace(pos, 14, "\"features\":[3]");
  const auto tampered = ParseAuditPayload(payload);
  ASSERT_FALSE(tampered.ok());
  EXPECT_EQ(tampered.status().code(), StatusCode::kDataLoss);
}

TEST(AuditParseTest, MalformedPayloadsAreDataLoss) {
  const char* cases[] = {
      // Empty and non-JSON.
      "", "not json\n",
      // Wrong schema.
      "{\"schema\":\"mysawh-telemetry v1\",\"sample_rate\":1,\"top_k\":1,"
      "\"records\":0}\n",
      // Header record count disagrees with the body.
      "{\"schema\":\"mysawh-audit v1\",\"sample_rate\":1,\"top_k\":1,"
      "\"records\":2}\n",
      // Invalid options.
      "{\"schema\":\"mysawh-audit v1\",\"sample_rate\":0,\"top_k\":1,"
      "\"records\":0}\n",
      // Record with a malformed fingerprint.
      "{\"schema\":\"mysawh-audit v1\",\"sample_rate\":1,\"top_k\":1,"
      "\"records\":1}\n"
      "{\"type\":\"predict\",\"fp\":\"XYZ\",\"model\":\"0\","
      "\"features\":[1],\"prediction\":0.5}\n",
      // Unknown record type.
      "{\"schema\":\"mysawh-audit v1\",\"sample_rate\":1,\"top_k\":1,"
      "\"records\":1}\n"
      "{\"type\":\"evict\",\"fp\":\"0\",\"model\":\"0\",\"features\":[1],"
      "\"prediction\":0.5}\n",
  };
  for (const char* payload : cases) {
    const auto parsed = ParseAuditPayload(payload);
    ASSERT_FALSE(parsed.ok()) << payload;
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss) << payload;
  }
}

TEST(AuditFileTest, ChecksummedFileRoundTrip) {
  AuditLog& log = AuditLog::Global();
  AuditOptions options;
  options.sample_rate = 2;
  options.top_k = 4;
  ASSERT_TRUE(log.Configure(options).ok());
  const Dataset data = MakeData(100, 3, 21);
  log.RecordPredictBatch(77, data, std::vector<double>(100, 1.25));
  log.Disable();
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mysawh_audit_" + std::to_string(::getpid()) + ".bin"))
          .string();
  ASSERT_TRUE(log.WriteToFile(path).ok());
  const AuditFile parsed = ReadAuditFile(path).value();
  EXPECT_EQ(parsed.sample_rate, 2);
  EXPECT_EQ(parsed.top_k, 4);
  EXPECT_EQ(static_cast<int64_t>(parsed.records.size()), log.record_count());
  std::filesystem::remove(path);
  EXPECT_FALSE(ReadAuditFile(path).ok()) << "a missing file cannot parse";
}

}  // namespace
}  // namespace mysawh::core
