// Deterministic corruption corpus: a saved model file and a checksummed CSV
// are subjected to hundreds of byte-level mutations (truncations, bit flips,
// line swaps and removals, garbage appends). Every mutated artifact must be
// rejected with a non-OK Status — never accepted, never a crash. Runs under
// ASan/UBSan in the CI robustness job, where any out-of-bounds read or
// overflow in the parsers turns into a hard failure.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/audit_log.h"
#include "data/dataset.h"
#include "gbt/gbt_model.h"
#include "model/model.h"
#include "util/csv.h"
#include "util/file_io.h"
#include "util/rng.h"
#include "util/status.h"

namespace mysawh {
namespace {

namespace fs = std::filesystem;

/// All mutations of the corpus, derived deterministically from `original`
/// with a fixed-seed Rng: the corpus is identical on every run.
std::vector<std::string> BuildMutations(const std::string& original) {
  Rng rng(20260806);
  std::vector<std::string> corpus;

  // Truncations: evenly spaced prefixes, plus every length near the ends
  // (header truncation, last-byte truncation).
  for (size_t len = 0; len < 16 && len < original.size(); ++len) {
    corpus.push_back(original.substr(0, len));
    corpus.push_back(original.substr(0, original.size() - 1 - len));
  }
  for (int i = 1; i <= 48; ++i) {
    corpus.push_back(
        original.substr(0, original.size() * static_cast<size_t>(i) / 50));
  }

  // Single bit flips at random offsets.
  for (int i = 0; i < 80; ++i) {
    std::string m = original;
    const auto pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(m.size()) - 1));
    m[pos] = static_cast<char>(
        m[pos] ^ static_cast<char>(1 << rng.UniformInt(0, 7)));
    corpus.push_back(std::move(m));
  }

  // Random byte replacements (multi-bit corruption).
  for (int i = 0; i < 40; ++i) {
    std::string m = original;
    const auto pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(m.size()) - 1));
    m[pos] = static_cast<char>(rng.UniformInt(0, 255));
    corpus.push_back(std::move(m));
  }

  // Line swaps and line removals (field/record reordering).
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < original.size()) {
    size_t end = original.find('\n', start);
    if (end == std::string::npos) end = original.size();
    lines.push_back(original.substr(start, end - start));
    start = end + 1;
  }
  auto join = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const auto& l : ls) {
      out += l;
      out += '\n';
    }
    return out;
  };
  const auto num_lines = static_cast<int64_t>(lines.size());
  for (int i = 0; i < 30 && num_lines >= 2; ++i) {
    std::vector<std::string> swapped = lines;
    const auto a = static_cast<size_t>(rng.UniformInt(0, num_lines - 1));
    const auto b = static_cast<size_t>(rng.UniformInt(0, num_lines - 1));
    std::swap(swapped[a], swapped[b]);
    corpus.push_back(join(swapped));
  }
  for (int i = 0; i < 20 && num_lines >= 2; ++i) {
    std::vector<std::string> removed = lines;
    removed.erase(removed.begin() + rng.UniformInt(0, num_lines - 1));
    corpus.push_back(join(removed));
  }

  // Garbage appends (partial-write tails from a crashed producer).
  for (int i = 0; i < 20; ++i) {
    std::string m = original;
    const int64_t extra = rng.UniformInt(1, 64);
    for (int64_t j = 0; j < extra; ++j) {
      m += static_cast<char>(rng.UniformInt(0, 255));
    }
    corpus.push_back(std::move(m));
  }

  // Wholesale garbage of assorted sizes.
  for (int i = 0; i < 10; ++i) {
    std::string m;
    const int64_t size = rng.UniformInt(0, 256);
    for (int64_t j = 0; j < size; ++j) {
      m += static_cast<char>(rng.UniformInt(0, 255));
    }
    corpus.push_back(std::move(m));
  }

  // Any mutation that happens to reproduce the original (e.g. swapping two
  // identical lines) is not a corruption; drop it.
  corpus.erase(std::remove(corpus.begin(), corpus.end(), original),
               corpus.end());
  return corpus;
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

class CorruptionCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mysawh_corpus_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(CorruptionCorpusTest, MutatedModelFilesAlwaysRejected) {
  // A small but real model: multiple trees, several features.
  Rng rng(7);
  Dataset train = Dataset::Create({"x0", "x1", "x2"});
  for (int i = 0; i < 200; ++i) {
    const double x0 = rng.Uniform(-1.0, 1.0);
    const double x1 = rng.Uniform(-1.0, 1.0);
    const double x2 = rng.Uniform(-1.0, 1.0);
    ASSERT_TRUE(train.AddRow({x0, x1, x2}, x0 - 0.5 * x1 * x2).ok());
  }
  gbt::GbtParams params;
  params.num_trees = 10;
  params.max_depth = 3;
  auto model = gbt::GbtModel::Train(train, params);
  ASSERT_TRUE(model.ok());
  const std::string path = Path("model.txt");
  ASSERT_TRUE(model->SaveToFile(path).ok());
  auto original_or = ReadFileToString(path);
  ASSERT_TRUE(original_or.ok());
  const std::string original = *original_or;

  // Control: the untouched file loads.
  ASSERT_TRUE(model::Model::LoadFromFile(path).ok());

  const std::vector<std::string> corpus = BuildMutations(original);
  ASSERT_GE(corpus.size(), 200u);
  const std::string mutant_path = Path("mutant.model");
  int64_t rejected = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    WriteRaw(mutant_path, corpus[i]);
    auto loaded = model::Model::LoadFromFile(mutant_path);
    EXPECT_FALSE(loaded.ok()) << "mutation " << i << " was accepted";
    if (!loaded.ok()) ++rejected;
  }
  EXPECT_EQ(rejected, static_cast<int64_t>(corpus.size()));
}

TEST_F(CorruptionCorpusTest, MutatedChecksummedCsvAlwaysRejected) {
  CsvDocument doc;
  doc.header = {"patient", "month", "value"};
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    doc.rows.push_back({std::to_string(i % 7), std::to_string(i % 12),
                        std::to_string(rng.Uniform(0.0, 1.0))});
  }
  const std::string path = Path("data.csv");
  ASSERT_TRUE(WriteCsv(path, doc, /*checksummed=*/true).ok());
  auto original_or = ReadFileToString(path);
  ASSERT_TRUE(original_or.ok());
  const std::string original = *original_or;

  ASSERT_TRUE(ReadCsv(path, /*require_checksum=*/true).ok());

  const std::vector<std::string> corpus = BuildMutations(original);
  ASSERT_GE(corpus.size(), 200u);
  const std::string mutant_path = Path("mutant.csv");
  for (size_t i = 0; i < corpus.size(); ++i) {
    WriteRaw(mutant_path, corpus[i]);
    auto read = ReadCsv(mutant_path, /*require_checksum=*/true);
    EXPECT_FALSE(read.ok()) << "mutation " << i << " was accepted";
  }
}

/// A small audit log with a few dozen predict records.
std::string BuildAuditPayload() {
  core::AuditLog& log = core::AuditLog::Global();
  core::AuditOptions options;
  options.sample_rate = 1;
  EXPECT_TRUE(log.Configure(options).ok());
  Rng rng(17);
  Dataset data = Dataset::Create({"x0", "x1"});
  std::vector<double> preds;
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(
        data.AddRow({rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)}, 0.0)
            .ok());
    preds.push_back(rng.Uniform(0.0, 1.0));
  }
  log.RecordPredictBatch(123, data, preds);
  log.Disable();
  return log.SerializePayload();
}

TEST_F(CorruptionCorpusTest, MutatedAuditLogsAlwaysRejected) {
  core::AuditLog& log = core::AuditLog::Global();
  BuildAuditPayload();  // Populates the global log's record buffer.
  const std::string path = Path("audit.bin");
  ASSERT_TRUE(log.WriteToFile(path).ok());
  ASSERT_TRUE(core::ReadAuditFile(path).ok());
  auto original_or = ReadFileToString(path);
  ASSERT_TRUE(original_or.ok());

  const std::vector<std::string> corpus = BuildMutations(*original_or);
  ASSERT_GE(corpus.size(), 200u);
  const std::string mutant_path = Path("mutant.audit");
  for (size_t i = 0; i < corpus.size(); ++i) {
    WriteRaw(mutant_path, corpus[i]);
    auto read = core::ReadAuditFile(mutant_path);
    EXPECT_FALSE(read.ok()) << "mutation " << i << " was accepted";
    if (!read.ok()) {
      EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
          << "mutation " << i << ": " << read.status().ToString();
    }
  }
}

TEST_F(CorruptionCorpusTest, MutatedAuditPayloadsNeverCrashTheParser) {
  // Past the envelope CRC: the raw payload mutated directly, so every
  // corruption reaches the record parser (and its fingerprint integrity
  // check) instead of being caught by the checksum.
  const std::string payload = BuildAuditPayload();
  int64_t accepted = 0, rejected = 0;
  for (const std::string& mutated : BuildMutations(payload)) {
    auto parsed = core::ParseAuditPayload(mutated);
    (parsed.ok() ? accepted : rejected) += 1;
  }
  EXPECT_GT(rejected, accepted);
}

TEST_F(CorruptionCorpusTest, MutatedPayloadsNeverCrashTheParsers) {
  // Corrupt the *payload* and re-wrap it in a fresh, valid envelope, so the
  // mutation reaches the model/CSV parsers instead of being caught by the
  // CRC. Parsers must return cleanly either way (a mutated payload can in
  // principle still be well-formed, so acceptance is not asserted) — under
  // the sanitizers this drives out-of-bounds reads and overflows into the
  // open.
  Rng rng(3);
  Dataset train = Dataset::Create({"a", "b"});
  for (int i = 0; i < 100; ++i) {
    const double a = rng.Uniform(-1.0, 1.0);
    const double b = rng.Uniform(-1.0, 1.0);
    ASSERT_TRUE(train.AddRow({a, b}, a + b).ok());
  }
  gbt::GbtParams params;
  params.num_trees = 5;
  params.max_depth = 2;
  auto model = gbt::GbtModel::Train(train, params);
  ASSERT_TRUE(model.ok());
  const std::string payload = model->Serialize();
  int64_t accepted = 0, rejected = 0;
  for (const std::string& mutated : BuildMutations(payload)) {
    auto loaded = model::Model::Deserialize(mutated);
    (loaded.ok() ? accepted : rejected) += 1;
  }
  // The overwhelming majority of structural mutations must be rejected.
  EXPECT_GT(rejected, accepted);
}

}  // namespace
}  // namespace mysawh
