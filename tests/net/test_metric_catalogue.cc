// The serving metric surface, pinned: the STATS keys and the Prometheus
// sample keys (`name{labels}`) a server emits for fixed traffic. Scripts,
// the loadgen report and dashboards read these names, so a change to either
// list must be deliberate and show up here. Order is not part of the
// contract (readers look keys up by name), so both compare as sorted lists.
// A second test holds the metric catalogue, STATS, METRICS and
// docs/observability.md to each other.
//
// Suite names contain "KvTcpServer" so the tsan preset's ctest filter
// exercises them under the race detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "kvs/memc3_backend.h"
#include "kvs/request_engine.h"
#include "net/kv_tcp_client.h"
#include "net/kv_tcp_server.h"

namespace simdht {
namespace {

// Sample keys of a Prometheus text page: every non-comment line up to the
// space before its value.
std::set<std::string> SampleKeys(const std::string& text) {
  std::set<std::string> keys;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    keys.insert(line.substr(0, line.rfind(' ')));
  }
  return keys;
}

// Runs SET, MGET (a hit and a miss), TMGET and STATS against a two-shard
// server and returns its STATS keys and METRICS sample keys.
void ServeFixedTraffic(std::vector<std::string>* stats_keys,
                       std::set<std::string>* sample_keys) {
  Memc3Backend backend(1 << 12, 16 << 20, /*simd_tags=*/false,
                       /*shards=*/2);
  KvTcpServer server(&backend);
  std::string err;
  ASSERT_TRUE(server.StartBackground(&err)) << err;
  KvTcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &err)) << err;
  ASSERT_TRUE(client.Set("a", "1", &err)) << err;
  std::vector<std::string> vals;
  std::vector<std::uint8_t> found;
  ASSERT_TRUE(client.MultiGet({"a", "b"}, &vals, &found, &err)) << err;
  TracedExchange exchange;
  ASSERT_TRUE(client.MultiGetTraced({"a"}, TraceContext{7, false}, &vals,
                                    &found, &exchange, &err))
      << err;
  StatsPairs stats;
  ASSERT_TRUE(client.Stats(&stats, &err)) << err;
  client.Close();
  server.Stop();
  server.Join();
  for (const auto& [key, value] : stats) stats_keys->push_back(key);
  *sample_keys = SampleKeys(server.RenderMetricsText());
}

std::vector<std::string> Expand(const std::string& prefix,
                                const std::vector<std::string>& suffixes) {
  std::vector<std::string> out;
  for (const std::string& s : suffixes) out.push_back(prefix + s);
  return out;
}

TEST(KvTcpServerCatalogue, StatsAndMetricsKeysMatchGolden) {
  std::vector<std::string> stats_keys;
  std::set<std::string> sample_keys;
  ServeFixedTraffic(&stats_keys, &sample_keys);

  const std::vector<std::string> summary = {".mean", ".p50", ".p90",
                                            ".p99", ".p999"};
  const std::vector<std::string> tails = {".p50", ".p90", ".p99", ".p999"};
  const std::vector<std::string> mean_max = {".mean", ".max"};
  std::vector<std::string> want = {
      "batches",     "requests",         "keys",
      "hits",        "connections",      "protocol_errors",
      "proto.trace_context", "units.phase_ns", "tsc_ghz"};
  for (const char* phase :
       {"parse_ns", "index_probe_ns", "value_copy_ns", "transport_ns"}) {
    for (const std::string& k : Expand(phase, summary)) want.push_back(k);
  }
  for (const char* occ : {"batch_connections", "batch_keys"}) {
    for (const std::string& k : Expand(occ, mean_max)) want.push_back(k);
  }
  for (const char* k : {"win.window_s", "win.requests_per_s",
                        "win.keys_per_s", "win.hits_per_s", "win.hit_rate"}) {
    want.push_back(k);
  }
  for (const char* w : {"win.parse_ns", "win.index_probe_ns",
                        "win.value_copy_ns", "win.transport_ns",
                        "win.dispatch_us"}) {
    for (const std::string& k : Expand(w, tails)) want.push_back(k);
  }
  for (const char* w :
       {"win.batch_connections", "win.batch_keys", "win.dispatch_events"}) {
    for (const std::string& k : Expand(w, mean_max)) want.push_back(k);
  }
  want.push_back("shards");
  for (const char* s : {"shard.0", "shard.1"}) {
    for (const std::string& k :
         Expand(s, {".hits", ".misses", ".stash_hits"})) {
      want.push_back(k);
    }
  }
  std::sort(stats_keys.begin(), stats_keys.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(stats_keys, want);

  std::set<std::string> want_samples = {
      "simdht_kvs_requests_total",        "simdht_kvs_batches_total",
      "simdht_kvs_keys_total",            "simdht_kvs_hits_total",
      "simdht_net_connections_total",     "simdht_net_protocol_errors_total",
      "simdht_window_seconds",            "simdht_window_requests_per_s",
      "simdht_window_keys_per_s",         "simdht_window_hits_per_s",
      "simdht_window_hit_rate"};
  for (const char* family :
       {"simdht_kvs_phase_ns", "simdht_window_phase_ns"}) {
    for (const char* phase :
         {"parse", "index_probe", "value_copy", "transport"}) {
      for (const char* q : {"0.5", "0.9", "0.99", "0.999"}) {
        want_samples.insert(std::string(family) + "{phase=\"" + phase +
                            "\",quantile=\"" + q + "\"}");
      }
    }
  }
  for (const char* family :
       {"simdht_window_batch_connections", "simdht_window_batch_keys",
        "simdht_window_dispatch_us", "simdht_window_dispatch_events"}) {
    for (const char* stat : {"mean", "p99", "max"}) {
      want_samples.insert(std::string(family) + "{stat=\"" + stat + "\"}");
    }
  }
  for (const char* family :
       {"simdht_shard_hits_total", "simdht_shard_misses_total",
        "simdht_shard_stash_hits_total"}) {
    for (const char* shard : {"0", "1"}) {
      want_samples.insert(std::string(family) + "{shard=\"" + shard + "\"}");
    }
  }
  EXPECT_EQ(sample_keys, want_samples);
}

TEST(KvTcpServerCatalogue, EveryRowIsServedAndDocumented) {
  std::vector<std::string> stats_keys;
  std::set<std::string> sample_keys;
  ServeFixedTraffic(&stats_keys, &sample_keys);
  std::ifstream doc_file(SIMDHT_SOURCE_DIR "/docs/observability.md");
  ASSERT_TRUE(doc_file) << "docs/observability.md not found";
  std::stringstream doc_text;
  doc_text << doc_file.rdbuf();
  const std::string doc = doc_text.str();
  const auto documented = [&doc](const std::string& name) {
    return doc.find("`" + name + "`") != std::string::npos;
  };
  const auto starts_with = [](const std::string& s, const std::string& p) {
    return s.compare(0, p.size(), p) == 0;
  };

  for (const KvSeries& row : KvSeriesCatalogue()) {
    const bool shard = row.source == KvSeries::Source::kShard;
    const std::string stats =
        shard ? std::string("shard.N.") + row.stats : row.stats;
    // STATS: the key itself, or its first statistic.
    const std::string want_key =
        shard ? std::string("shard.0.") + row.stats : row.stats;
    EXPECT_TRUE(std::any_of(stats_keys.begin(), stats_keys.end(),
                            [&](const std::string& k) {
                              return k == want_key ||
                                     starts_with(k, want_key + ".");
                            }))
        << stats << " missing from STATS";
    EXPECT_TRUE(documented(stats)) << stats << " missing from the docs";
    if (row.name != nullptr) {
      EXPECT_TRUE(documented(row.name))
          << row.name << " missing from the docs";
    }
    if (row.family == nullptr) continue;
    std::string sample = row.family;
    if (row.phase != nullptr) sample += std::string("{phase=\"") + row.phase;
    EXPECT_TRUE(std::any_of(sample_keys.begin(), sample_keys.end(),
                            [&](const std::string& k) {
                              return k == sample ||
                                     starts_with(k, sample + (row.phase
                                                                  ? "\""
                                                                  : "{"));
                            }))
        << sample << " missing from METRICS";
    EXPECT_TRUE(documented(row.family))
        << row.family << " missing from the docs";
  }
}

}  // namespace
}  // namespace simdht
