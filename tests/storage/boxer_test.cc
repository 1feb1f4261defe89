#include "storage/boxer.h"

#include <numeric>

#include <gtest/gtest.h>

namespace gemstone::storage {
namespace {

std::vector<std::uint8_t> Blob(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i);
  }
  return out;
}

// Boxes `blobs` (owned by the parallel `oids`) in one batch.
Result<Boxing> Pack(Boxer& boxer, const std::vector<Oid>& oids,
                    const std::vector<std::vector<std::uint8_t>>& blobs) {
  for (std::size_t i = 0; i < oids.size(); ++i) {
    GS_ASSIGN_OR_RETURN(Boxer::Written written,
                        boxer.Add(oids[i], [&](ByteWriter* out) {
                          out->PutBytes(blobs[i]);
                        }));
    EXPECT_EQ(written.byte_len, blobs[i].size());
    EXPECT_EQ(written.checksum,
              Fnv1a(std::span<const std::uint8_t>(blobs[i])));
  }
  return boxer.Finish();
}

// Fragments in one payload.
std::size_t FragmentCount(const std::vector<std::uint8_t>& payload) {
  std::size_t count = 0;
  EXPECT_TRUE(Boxer::ForEachFragment(payload,
                                     [&](const Boxer::FragmentView&) {
                                       ++count;
                                       return Status::OK();
                                     })
                  .ok());
  return count;
}

// Reassembles object `oid` of known size from a set of payloads.
std::vector<std::uint8_t> Reassemble(
    const Boxing& boxing, std::pair<std::size_t, std::size_t> placement,
    Oid oid, std::size_t size) {
  std::vector<std::uint8_t> image(size);
  for (std::size_t payload = placement.first; payload < placement.second;
       ++payload) {
    auto placed = Boxer::ExtractFragments(boxing.payloads[payload], oid,
                                          std::span<std::uint8_t>(image));
    EXPECT_TRUE(placed.ok()) << placed.status().ToString();
  }
  return image;
}

TEST(BoxerTest, SmallObjectsShareOneTrack) {
  Boxer boxer(1024);
  std::vector<Oid> oids = {Oid(1), Oid(2), Oid(3)};
  std::vector<std::vector<std::uint8_t>> blobs = {Blob(100, 1), Blob(100, 2),
                                                  Blob(100, 3)};
  auto boxing = Pack(boxer, oids, blobs).ValueOrDie();
  EXPECT_EQ(boxing.payloads.size(), 1u);  // clustering: one track, 3 objects
  EXPECT_EQ(FragmentCount(boxing.payloads[0]), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(Reassemble(boxing, boxing.placements[i], oids[i], 100),
              blobs[i]);
  }
}

TEST(BoxerTest, LargeObjectSpansTracks) {
  Boxer boxer(256);
  std::vector<Oid> oids = {Oid(9)};
  std::vector<std::vector<std::uint8_t>> blobs = {Blob(1000, 7)};
  auto boxing = Pack(boxer, oids, blobs).ValueOrDie();
  EXPECT_GE(boxing.payloads.size(), 4u);  // 1000 bytes across 256-byte tracks
  EXPECT_EQ(boxing.placements[0].second - boxing.placements[0].first,
            boxing.payloads.size());
  EXPECT_EQ(Reassemble(boxing, boxing.placements[0], oids[0], 1000), blobs[0]);
}

TEST(BoxerTest, PayloadsRespectCapacity) {
  const std::size_t capacity = 300;
  Boxer boxer(capacity);
  std::vector<Oid> oids;
  std::vector<std::vector<std::uint8_t>> blobs;
  for (int i = 0; i < 20; ++i) {
    oids.push_back(Oid(100 + i));
    blobs.push_back(Blob(37 * (i % 5) + 10, static_cast<std::uint8_t>(i)));
  }
  auto boxing = Pack(boxer, oids, blobs).ValueOrDie();
  for (const auto& p : boxing.payloads) {
    EXPECT_LE(p.size(), capacity);
  }
  for (std::size_t i = 0; i < oids.size(); ++i) {
    EXPECT_EQ(Reassemble(boxing, boxing.placements[i], oids[i],
                         blobs[i].size()),
              blobs[i]);
  }
}

TEST(BoxerTest, MixedSmallAndLarge) {
  Boxer boxer(128);
  std::vector<Oid> oids = {Oid(1), Oid(2), Oid(3)};
  std::vector<std::vector<std::uint8_t>> blobs = {Blob(20, 1), Blob(500, 2),
                                                  Blob(20, 3)};
  auto boxing = Pack(boxer, oids, blobs).ValueOrDie();
  for (std::size_t i = 0; i < oids.size(); ++i) {
    EXPECT_EQ(Reassemble(boxing, boxing.placements[i], oids[i],
                         blobs[i].size()),
              blobs[i]);
  }
}

TEST(BoxerTest, TinyTrackCapacityRejected) {
  Boxer boxer(8);
  std::vector<Oid> oids = {Oid(1)};
  std::vector<std::vector<std::uint8_t>> blobs = {Blob(4, 1)};
  EXPECT_EQ(Pack(boxer, oids, blobs).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BoxerTest, ExtractIgnoresOtherObjects) {
  Boxer boxer(1024);
  std::vector<Oid> oids = {Oid(1), Oid(2)};
  std::vector<std::vector<std::uint8_t>> blobs = {Blob(10, 1), Blob(10, 200)};
  auto boxing = Pack(boxer, oids, blobs).ValueOrDie();
  std::vector<std::uint8_t> image(10, 0xAA);
  auto placed = Boxer::ExtractFragments(boxing.payloads[0], Oid(99),
                                        std::span<std::uint8_t>(image));
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed.value(), 0u);
  EXPECT_EQ(image[0], 0xAA);  // untouched
}

TEST(BoxerTest, CorruptTrackPayloadDetected) {
  std::vector<std::uint8_t> junk = {5, 0, 0, 0, 1, 2};  // count=5, no data
  std::vector<std::uint8_t> image(10);
  EXPECT_EQ(Boxer::ExtractFragments(junk, Oid(1),
                                    std::span<std::uint8_t>(image))
                .status()
                .code(),
            StatusCode::kCorruption);
}

// Property sweep: any blob-size mix reassembles exactly.
class BoxerSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BoxerSweep, RoundTripAtCapacity) {
  const std::size_t capacity = GetParam();
  Boxer boxer(capacity);
  std::vector<Oid> oids;
  std::vector<std::vector<std::uint8_t>> blobs;
  std::size_t sizes[] = {1,  17,  63,   64,   65,   127, 128,
                         129, 255, 1000, 4096, 5000};
  std::uint8_t seed = 0;
  for (std::size_t s : sizes) {
    oids.push_back(Oid(1000 + seed));
    blobs.push_back(Blob(s, seed++));
  }
  auto boxing = Pack(boxer, oids, blobs).ValueOrDie();
  for (const auto& p : boxing.payloads) {
    ASSERT_LE(p.size(), capacity);
  }
  for (std::size_t i = 0; i < oids.size(); ++i) {
    EXPECT_EQ(Reassemble(boxing, boxing.placements[i], oids[i],
                         blobs[i].size()),
              blobs[i])
        << "capacity=" << capacity << " blob=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BoxerSweep,
                         ::testing::Values(64, 128, 512, 4096, 16384));

}  // namespace
}  // namespace gemstone::storage
