// The SIMD backend's 32-bit hash-key collision path: two distinct full keys
// whose 64-bit hashes share the top 32 bits cannot coexist in the index.
#include <gtest/gtest.h>

#include <string>

#include "colliding_keys.h"
#include "kvs/loadgen.h"
#include "kvs/simd_backend.h"

namespace simdht {
namespace {

TEST(SimdBackendCollision, SecondKeyRejectedAndCounted) {
  std::string a, b;
  if (!FindCollidingPair(&a, &b)) {
    GTEST_SKIP() << "no 32-bit collision found in the search budget";
  }
  ASSERT_NE(a, b);

  SimdBackend backend(SimdBackend::ScalarBucketCuckoo(), 1 << 12, 16 << 20);
  EXPECT_TRUE(backend.Set(a, "first"));
  EXPECT_EQ(backend.hash_collisions(), 0u);

  // The colliding key cannot be stored...
  EXPECT_FALSE(backend.Set(b, "second"));
  EXPECT_EQ(backend.hash_collisions(), 1u);

  // ...and must not corrupt the resident one; lookups of the collider
  // fail full-key verification instead of returning the wrong value.
  std::string val;
  EXPECT_TRUE(backend.Get(a, &val));
  EXPECT_EQ(val, "first");
  EXPECT_FALSE(backend.Get(b, &val));

  // The resident key remains updatable.
  EXPECT_TRUE(backend.Set(a, "updated"));
  EXPECT_TRUE(backend.Get(a, &val));
  EXPECT_EQ(val, "updated");
}

}  // namespace
}  // namespace simdht
