// Fuzz-ish robustness tests of the provenance store image and the layer
// spill files: bit flips and truncations must come back as Status errors
// (never crashes or silent misreads), and the errors must name the file.

#include <gtest/gtest.h>

#include <string>

#include "provenance/store.h"
#include "storage/layer.h"

namespace ariadne {
namespace {

Layer MakeLayer(Superstep step, int rel, int n_vertices) {
  Layer layer;
  layer.step = step;
  for (int v = 0; v < n_vertices; ++v) {
    layer.Add(rel, v,
              {{Value(int64_t{v}), Value(static_cast<int64_t>(step)),
                Value(0.5 * v)},
               {Value(int64_t{v}), Value("payload-" + std::to_string(v)),
                Value()}});
  }
  layer.Canonicalize();
  return layer;
}

ProvenanceStore MakeStore() {
  ProvenanceStore store;
  const int rel = store.AddRelation("value", 3);
  store.static_layer().Add(store.AddRelation("prov-edges", 2), 0,
                           {{Value(int64_t{0}), Value(int64_t{1})}});
  for (Superstep s = 0; s < 4; ++s) {
    EXPECT_TRUE(store.AppendLayer(MakeLayer(s, rel, 25)).ok());
  }
  return store;
}

class StoreCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/corruption_test_store.bin";
    ProvenanceStore store = MakeStore();
    ASSERT_TRUE(store.SaveToFile(path_).ok());
    auto data = ReadFile(path_);
    ASSERT_TRUE(data.ok());
    image_ = std::move(data).value();
    ASSERT_GT(image_.size(), 64u);
  }

  /// Writes `bytes` to the test path and tries to load it.
  Result<ProvenanceStore> LoadBytes(const std::string& bytes) {
    EXPECT_TRUE(WriteFile(path_, bytes).ok());
    return ProvenanceStore::LoadFromFile(path_);
  }

  std::string path_;
  std::string image_;
};

TEST_F(StoreCorruptionTest, PristineImageLoads) {
  auto loaded = LoadBytes(image_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_layers(), 4);
}

TEST_F(StoreCorruptionTest, EveryBitFlipIsRejected) {
  // Walk the image with a stride, flipping one bit at a time. The file
  // checksum (plus magic/flags validation in the header) must catch every
  // single one — and none may crash or hang the loader.
  const size_t stride = std::max<size_t>(1, image_.size() / 97);
  int flips = 0;
  for (size_t pos = 0; pos < image_.size(); pos += stride) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string corrupt = image_;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ bit);
      auto loaded = LoadBytes(corrupt);
      EXPECT_FALSE(loaded.ok())
          << "bit flip at byte " << pos << " was not detected";
      ++flips;
    }
  }
  EXPECT_GE(flips, 100);
}

TEST_F(StoreCorruptionTest, EveryTruncationIsRejected) {
  const size_t stride = std::max<size_t>(1, image_.size() / 61);
  for (size_t cut = 0; cut < image_.size(); cut += stride) {
    auto loaded = LoadBytes(image_.substr(0, cut));
    EXPECT_FALSE(loaded.ok()) << "truncation to " << cut
                              << " bytes was not detected";
    EXPECT_NE(loaded.status().message().find(path_), std::string::npos)
        << "error does not name the file: " << loaded.status().ToString();
  }
}

TEST_F(StoreCorruptionTest, TrailingGarbageIsRejected) {
  // Appending bytes breaks the checksum; with a fixed-up checksum the
  // structural trailing-bytes check must still fire (defense in depth).
  auto loaded = LoadBytes(image_ + std::string(8, '\x7f'));
  EXPECT_FALSE(loaded.ok());
}

}  // namespace
}  // namespace ariadne
