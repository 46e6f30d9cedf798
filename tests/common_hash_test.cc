#include "common/hash.h"

#include <cstdint>
#include <span>
#include <string_view>

#include <gtest/gtest.h>

#include "stats/statistics_shard.h"

namespace equihist {
namespace {

std::uint64_t HashOf(std::string_view text) {
  return Fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

// Shard routing, build seeds, the envelope checksum and the checked-in
// fuzz corpora all depend on these exact bits: the published FNV-1a 64
// test vectors.
TEST(Fnv1a64Test, KnownAnswers) {
  EXPECT_EQ(HashOf(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(HashOf("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(HashOf("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64Test, ColumnNamesHashTheirBytes) {
  for (const char* name : {"", "a", "foobar", "t.c0"}) {
    EXPECT_EQ(HashColumnName(name), HashOf(name)) << name;
  }
}

}  // namespace
}  // namespace equihist
