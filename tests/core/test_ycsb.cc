// YCSB scenario-matrix smoke tests: mixes, key bijection, and a small
// end-to-end run of every workload against every table family.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/ycsb.h"

namespace simdht {
namespace {

TEST(Ycsb, MixesSumToOne) {
  for (const YcsbWorkload w : kAllYcsbWorkloads) {
    const YcsbMix m = YcsbMixFor(w);
    EXPECT_NEAR(m.read + m.update + m.insert + m.scan + m.rmw, 1.0, 1e-12)
        << YcsbWorkloadName(w);
  }
}

TEST(Ycsb, WorkloadNamesRoundTrip) {
  for (const YcsbWorkload w : kAllYcsbWorkloads) {
    YcsbWorkload back;
    ASSERT_TRUE(ParseYcsbWorkload(YcsbWorkloadName(w), &back));
    EXPECT_EQ(back, w);
  }
  YcsbWorkload w;
  EXPECT_FALSE(ParseYcsbWorkload("G", &w));
  EXPECT_FALSE(ParseYcsbWorkload("", &w));
  EXPECT_FALSE(ParseYcsbWorkload("AB", &w));
}

TEST(Ycsb, KeysAreDistinctAndNonSentinel) {
  std::set<std::uint32_t> seen;
  for (std::uint64_t id = 0; id < 10000; ++id) {
    const std::uint32_t key = YcsbKey(id);
    EXPECT_NE(key, 0u);  // never the empty sentinel
    EXPECT_TRUE(seen.insert(key).second) << id;
  }
}

TEST(Ycsb, PreloadFillsTable) {
  YcsbTable::Options o;
  o.ways = 2;
  o.slots = 4;
  o.capacity = 1u << 12;
  YcsbTable table(o);
  const std::uint64_t accepted = YcsbPreload(&table, 1u << 11);
  EXPECT_EQ(accepted, 1u << 11);
  EXPECT_EQ(table.size(), 1u << 11);
  // Every preloaded key must read back with its derived value.
  std::uint32_t val = 0;
  for (std::uint64_t id = 0; id < (1u << 11); ++id) {
    ASSERT_TRUE(table.Find(YcsbKey(id), &val)) << id;
    EXPECT_EQ(val, YcsbVal(YcsbKey(id)));
  }
}

// One small run of every workload on every family: op counts must add up,
// resident reads must all hit, and D/E must grow the table.
TEST(Ycsb, AllWorkloadsAllFamiliesSmoke) {
  struct FamilyCase {
    const char* label;
    TableFamily family;
    unsigned ways, slots, shards;
  };
  const FamilyCase families[] = {
      {"bcht", TableFamily::kCuckoo, 2, 4, 1},
      {"cuckoo-ver", TableFamily::kCuckoo, 3, 1, 1},
      {"swiss", TableFamily::kSwiss, 0, 0, 1},
      {"sharded", TableFamily::kCuckoo, 2, 4, 4},
  };
  for (const FamilyCase& fc : families) {
    for (const YcsbWorkload w : kAllYcsbWorkloads) {
      SCOPED_TRACE(std::string(fc.label) + "/" + YcsbWorkloadName(w));
      YcsbTable::Options o;
      o.family = fc.family;
      if (fc.family == TableFamily::kCuckoo) {
        o.ways = fc.ways;
        o.slots = fc.slots;
      }
      o.shards = fc.shards;
      o.capacity = 1u << 13;
      YcsbTable table(o);

      YcsbConfig config;
      config.workload = w;
      config.initial_keys = 1u << 12;
      config.ops = 1u << 12;
      config.batch = 64;
      ASSERT_EQ(YcsbPreload(&table, config.initial_keys),
                config.initial_keys);
      const YcsbResult r = RunYcsb(&table, config);

      const YcsbOpCounts& c = r.counts;
      EXPECT_EQ(c.reads + c.updates + c.inserts + c.scans + c.rmws,
                config.ops);
      // Inserts never saturate this table, so every addressed id is
      // resident and every probe (reads, scan keys, RMW reads) hits.
      EXPECT_EQ(c.insert_ok, c.inserts);
      EXPECT_EQ(c.read_hits, c.reads + c.scan_keys + c.rmws);
      EXPECT_DOUBLE_EQ(r.hit_rate, c.read_hits ? 1.0 : 0.0);
      EXPECT_EQ(r.final_size, config.initial_keys + c.inserts);
      const YcsbMix mix = YcsbMixFor(w);
      if (mix.insert > 0) {
        EXPECT_GT(c.inserts, 0u);
      }
      if (mix.scan > 0) {
        EXPECT_GT(c.scans, 0u);
        EXPECT_GE(c.scan_keys, c.scans);
      }
      if (mix.rmw > 0) {
        EXPECT_GT(c.rmws, 0u);
      }
      EXPECT_GT(r.mops, 0.0);
    }
  }
}

// The RMW writeback must be visible: after an F run, every key's value is
// either the preloaded derivation or an incremented version of it.
TEST(Ycsb, RmwWritebackVisible) {
  YcsbTable::Options o;
  o.ways = 4;
  o.slots = 4;
  o.capacity = 1u << 10;
  YcsbTable table(o);
  YcsbConfig config;
  config.workload = YcsbWorkload::kF;
  config.initial_keys = 1u << 9;
  config.ops = 1u << 12;
  config.batch = 32;
  ASSERT_EQ(YcsbPreload(&table, config.initial_keys), config.initial_keys);
  const YcsbResult r = RunYcsb(&table, config);
  ASSERT_GT(r.counts.rmws, 0u);
  std::uint64_t bumped = 0;
  std::uint32_t val = 0;
  for (std::uint64_t id = 0; id < config.initial_keys; ++id) {
    const std::uint32_t key = YcsbKey(id);
    ASSERT_TRUE(table.Find(key, &val));
    const std::uint32_t delta = val - YcsbVal(key);
    bumped += delta > 0 ? 1 : 0;
  }
  // Zipf skew guarantees the hot keys saw many RMWs.
  EXPECT_GT(bumped, 0u);
}

}  // namespace
}  // namespace simdht
