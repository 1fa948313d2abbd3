// SecretBytes taint-type tests: the compile-time guarantees (deleted
// copies and equality), the wipe path, move semantics, and the sanctioned
// ct_equal comparison surface.
#include <gtest/gtest.h>

#include <concepts>
#include <type_traits>
#include <vector>

#include "common/secret.hpp"

namespace neuropuls::common {
namespace {

// ---- Compile-error proofs ------------------------------------------------------
// The tentpole guarantee: misuse of a secret is a compile error, not a
// code-review finding. These static_asserts ARE the negative-compile
// tests — if someone re-adds `operator==` or an implicit copy, this
// translation unit stops building.
static_assert(!std::equality_comparable<SecretBytes>,
              "SecretBytes must not be ==-comparable (timing oracle)");
static_assert(!std::is_copy_constructible_v<SecretBytes>,
              "secret copies must be explicit via clone()");
static_assert(!std::is_copy_assignable_v<SecretBytes>,
              "secret copies must be explicit via clone()");
static_assert(std::is_nothrow_move_constructible_v<SecretBytes>);
static_assert(std::is_nothrow_move_assignable_v<SecretBytes>);
static_assert(!std::is_convertible_v<crypto::Bytes, SecretBytes>,
              "plain buffers must not silently become secrets");
// SecretVector's one wipe is its destructor's: no copy, and no move that
// would leave a second owner of the buffer.
static_assert(!std::is_copy_constructible_v<SecretVector<double>>);
static_assert(!std::is_move_constructible_v<SecretVector<double>>);
static_assert(!std::is_convertible_v<std::vector<double>,
                                     SecretVector<double>>,
              "plain buffers must not silently become secrets");

TEST(SecretBytes, AdoptingConstructorTakesOwnership) {
  crypto::Bytes data = {1, 2, 3, 4};
  SecretBytes secret(std::move(data));
  EXPECT_EQ(secret.size(), 4u);
  EXPECT_FALSE(secret.empty());
  EXPECT_TRUE(data.empty());  // no second copy left behind
  EXPECT_EQ(secret.reveal()[2], 3u);
}

TEST(SecretBytes, WipeZeroizesTheBufferBeforeReleasingIt) {
  // Move a buffer in, keep a pointer to the heap block, wipe, and check
  // every byte was zeroised. clear() keeps the allocation, so the block
  // is still owned by the (now empty) vector when we inspect it.
  crypto::Bytes data(32, 0xAB);
  const std::uint8_t* block = data.data();
  SecretBytes secret(std::move(data));
  ASSERT_EQ(secret.reveal().data(), block);  // same heap block moved in

  secret.wipe();
  EXPECT_TRUE(secret.empty());
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(block[i], 0u) << "residue at offset " << i;
  }
  // The destructor runs the same wipe; double-wiping must be safe.
  secret.wipe();
}

TEST(SecretBytes, MoveConstructionEmptiesTheSource) {
  SecretBytes a(crypto::Bytes{9, 9, 9});
  SecretBytes b(std::move(a));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): on purpose
  EXPECT_EQ(b.size(), 3u);
}

TEST(SecretBytes, MoveAssignmentTransfersAndEmptiesSource) {
  SecretBytes a(crypto::Bytes{1, 2});
  SecretBytes b(crypto::Bytes{7, 7, 7, 7});
  b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): on purpose
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.reveal()[1], 2u);
}

TEST(SecretBytes, CloneIsAnIndependentCopy) {
  SecretBytes original(crypto::Bytes{5, 6, 7});
  SecretBytes copy = original.clone();
  EXPECT_TRUE(ct_equal(original, copy));
  original.wipe();
  EXPECT_TRUE(original.empty());
  EXPECT_EQ(copy.size(), 3u);  // survives the source's wipe
  EXPECT_EQ(copy.reveal()[0], 5u);
}

TEST(SecretBytes, CopyOfDuplicatesAView) {
  const crypto::Bytes wire = {0x10, 0x20, 0x30, 0x40};
  SecretBytes secret =
      SecretBytes::copy_of(crypto::ByteView(wire).subspan(1, 2));
  EXPECT_EQ(secret.size(), 2u);
  EXPECT_EQ(secret.reveal()[0], 0x20u);
}

TEST(SecretBytes, CtEqualOverloads) {
  SecretBytes a(crypto::Bytes{1, 2, 3});
  SecretBytes same(crypto::Bytes{1, 2, 3});
  SecretBytes different(crypto::Bytes{1, 2, 4});
  const crypto::Bytes plain = {1, 2, 3};

  EXPECT_TRUE(ct_equal(a, same));
  EXPECT_FALSE(ct_equal(a, different));
  EXPECT_TRUE(ct_equal(a, crypto::ByteView(plain)));
  EXPECT_TRUE(ct_equal(crypto::ByteView(plain), a));
  EXPECT_FALSE(ct_equal(a, SecretBytes(crypto::Bytes{1, 2})));  // length
  EXPECT_TRUE(ct_equal(SecretBytes(), SecretBytes()));  // empty == empty
}

TEST(SecretBytes, DefaultConstructedIsEmpty) {
  SecretBytes secret;
  EXPECT_TRUE(secret.empty());
  EXPECT_EQ(secret.size(), 0u);
  EXPECT_TRUE(secret.reveal().empty());
  secret.wipe();  // wiping an empty secret is a no-op, not a crash
}

}  // namespace
}  // namespace neuropuls::common
