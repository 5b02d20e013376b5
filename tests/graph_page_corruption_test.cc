// Fuzz-ish robustness tests of the AGP1 graph spill file, mirroring
// store_corruption_test.cc for the provenance image: bit flips and
// truncations must come back as Status errors that name the file — never
// crashes, and never a silently wrong adjacency. Every frame of the file
// (header, partition fragments, directory) is covered by a Checksum64,
// so a flipped bit anywhere but the 16-byte raw footer is caught by the
// frame checksums; footer damage is caught by the magic/offset checks.
//
// The paged VertexState spill (engine/vertex_state.h) carries the same
// per-page checksums but is created, consumed, and deleted within one
// run — it is scratch, not an interchange format — so it has no
// corruption surface to test at this level: a damaged page read surfaces
// as the engine's sticky backend error at the next superstep barrier.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "common/serialize.h"
#include "graph/generators.h"
#include "graph/paged_backend.h"

namespace ariadne {
namespace {

class GraphPageCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/graph_corruption_" +
            std::to_string(::getpid()) + ".agp";
    auto g = GenerateRmat(
        {.scale = 6, .avg_degree = 6, .seed = 3, .max_weight = 2.0});
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(PagedBackend::CreateFrom(*g, path_).ok());
    auto data = ReadFile(path_);
    ASSERT_TRUE(data.ok());
    image_ = std::move(data).value();
    ASSERT_GT(image_.size(), 64u);
  }

  void TearDown() override { std::filesystem::remove(path_); }

  /// Writes `bytes` to the test path, opens it and verifies every frame
  /// (re-read and checksummed, exactly what a corrupted demand fault
  /// would hit lazily).
  Result<std::unique_ptr<PagedBackend>> OpenBytes(const std::string& bytes) {
    EXPECT_TRUE(WriteFile(path_, bytes).ok());
    ARIADNE_ASSIGN_OR_RETURN(auto backend, PagedBackend::Open(path_));
    ARIADNE_RETURN_NOT_OK(backend->VerifyAllPartitions());
    return backend;
  }

  std::string path_;
  std::string image_;
};

TEST_F(GraphPageCorruptionTest, CleanImageOpens) {
  auto opened = OpenBytes(image_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE((*opened)->VerifyAllPartitions().ok());
}

TEST_F(GraphPageCorruptionTest, EveryStridedBitFlipDetected) {
  // A low bit (value damage) and the high bit (sign/magnitude damage) at
  // a prime stride so every frame of the file gets hit multiple times.
  for (unsigned char flip : {0x01, 0x80}) {
    for (size_t pos = 0; pos < image_.size(); pos += 37) {
      std::string corrupted = image_;
      corrupted[pos] = static_cast<char>(corrupted[pos] ^ flip);
      auto opened = OpenBytes(corrupted);
      EXPECT_FALSE(opened.ok())
          << "undetected flip of 0x" << std::hex << int(flip) << " at byte "
          << std::dec << pos;
      if (!opened.ok()) {
        EXPECT_NE(opened.status().ToString().find(path_), std::string::npos)
            << "error does not name the file: "
            << opened.status().ToString();
      }
    }
  }
}

TEST_F(GraphPageCorruptionTest, EveryStridedTruncationDetected) {
  for (size_t keep = 0; keep < image_.size(); keep += 41) {
    auto opened = OpenBytes(image_.substr(0, keep));
    EXPECT_FALSE(opened.ok()) << "undetected truncation to " << keep
                              << " bytes";
  }
  // Off-by-one at the end: dropping just the last byte kills the footer.
  auto opened = OpenBytes(image_.substr(0, image_.size() - 1));
  EXPECT_FALSE(opened.ok());
}

TEST_F(GraphPageCorruptionTest, TrailingGarbageDetected) {
  // Appended bytes shift the footer away from end-of-file.
  auto opened = OpenBytes(image_ + std::string(13, '\x5a'));
  EXPECT_FALSE(opened.ok());
}

TEST_F(GraphPageCorruptionTest, EmptyAndTinyFilesRejected) {
  EXPECT_FALSE(OpenBytes("").ok());
  EXPECT_FALSE(OpenBytes("AGP1").ok());
  EXPECT_FALSE(OpenBytes(std::string(15, '\0')).ok());
}

}  // namespace
}  // namespace ariadne
