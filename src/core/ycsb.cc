#include "core/ycsb.h"

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "core/zipf.h"

namespace simdht {

const char* YcsbWorkloadName(YcsbWorkload w) {
  switch (w) {
    case YcsbWorkload::kA: return "A";
    case YcsbWorkload::kB: return "B";
    case YcsbWorkload::kC: return "C";
    case YcsbWorkload::kD: return "D";
    case YcsbWorkload::kE: return "E";
    case YcsbWorkload::kF: return "F";
  }
  return "?";
}

bool ParseYcsbWorkload(std::string_view name, YcsbWorkload* out) {
  if (name.size() != 1) return false;
  switch (name[0]) {
    case 'A': case 'a': *out = YcsbWorkload::kA; return true;
    case 'B': case 'b': *out = YcsbWorkload::kB; return true;
    case 'C': case 'c': *out = YcsbWorkload::kC; return true;
    case 'D': case 'd': *out = YcsbWorkload::kD; return true;
    case 'E': case 'e': *out = YcsbWorkload::kE; return true;
    case 'F': case 'f': *out = YcsbWorkload::kF; return true;
  }
  return false;
}

YcsbMix YcsbMixFor(YcsbWorkload w) {
  YcsbMix m;
  switch (w) {
    case YcsbWorkload::kA: m.read = 0.5;  m.update = 0.5;  break;
    case YcsbWorkload::kB: m.read = 0.95; m.update = 0.05; break;
    case YcsbWorkload::kC: m.read = 1.0;                   break;
    case YcsbWorkload::kD: m.read = 0.95; m.insert = 0.05; break;
    case YcsbWorkload::kE: m.scan = 0.95; m.insert = 0.05; break;
    case YcsbWorkload::kF: m.read = 0.5;  m.rmw = 0.5;     break;
  }
  return m;
}

std::uint64_t YcsbPreload(YcsbTable* table, std::uint64_t n) {
  constexpr std::size_t kChunk = 1u << 12;
  std::vector<std::uint32_t> keys(kChunk), vals(kChunk);
  std::vector<std::uint8_t> ok(kChunk);
  std::uint64_t accepted = 0;
  for (std::uint64_t base = 0; base < n; base += kChunk) {
    const std::size_t m =
        static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, n - base));
    for (std::size_t i = 0; i < m; ++i) {
      keys[i] = YcsbKey(base + i);
      vals[i] = YcsbVal(keys[i]);
    }
    table->BatchInsert(keys.data(), vals.data(), ok.data(), m);
    for (std::size_t i = 0; i < m; ++i) accepted += ok[i] ? 1 : 0;
  }
  return accepted;
}

YcsbResult RunYcsb(YcsbTable* table, const YcsbConfig& config) {
  YcsbResult result;
  // Move-assigned: GCC 12's -Wrestrict misfires on string = const char*.
  result.workload = std::string(YcsbWorkloadName(config.workload));
  const YcsbMix mix = YcsbMixFor(config.workload);
  const bool read_latest = config.workload == YcsbWorkload::kD;

  Xoshiro256 rng(config.seed);
  // Zipf ranks are drawn over the preloaded set; for read-latest (D) a rank
  // measures distance from the most recent insert instead, so the hot end
  // tracks the insert frontier.
  const ZipfGenerator zipf(std::max<std::uint64_t>(config.initial_keys, 1),
                           config.zipf_s);

  // Ids [0, applied) are resident (preload + inserts already executed).
  // Inserts drawn inside a batch run at its end, so reads in the same
  // batch address the pre-batch frontier — at most `batch` ops of lag,
  // exactly what a batching front-end exhibits.
  std::uint64_t applied = config.initial_keys;
  std::uint64_t next_insert_id = config.initial_keys;

  const auto draw_id = [&]() -> std::uint64_t {
    const std::uint64_t rank = zipf.Next(&rng) % applied;
    return read_latest ? applied - 1 - rank : rank;
  };

  std::vector<std::uint32_t> read_keys, read_vals;
  std::vector<std::uint8_t> read_found;
  std::vector<std::uint32_t> upd_keys, upd_vals;
  std::vector<std::uint8_t> upd_ok;
  std::vector<std::uint32_t> ins_keys, ins_vals;
  std::vector<std::uint8_t> ins_ok;
  std::vector<std::uint32_t> rmw_keys, rmw_vals;
  std::vector<std::uint8_t> rmw_found;

  YcsbOpCounts& c = result.counts;
  const double t_read = mix.read;
  const double t_update = t_read + mix.update;
  const double t_insert = t_update + mix.insert;
  const double t_scan = t_insert + mix.scan;

  Timer timer;
  std::uint64_t remaining = config.ops;
  while (remaining > 0) {
    const std::uint64_t b =
        std::min<std::uint64_t>(std::max(config.batch, 1u), remaining);
    remaining -= b;

    read_keys.clear();
    upd_keys.clear();
    upd_vals.clear();
    ins_keys.clear();
    ins_vals.clear();
    rmw_keys.clear();

    for (std::uint64_t op = 0; op < b; ++op) {
      const double u = rng.NextDouble();
      if (u < t_read) {
        read_keys.push_back(YcsbKey(draw_id()));
        ++c.reads;
      } else if (u < t_update) {
        upd_keys.push_back(YcsbKey(draw_id()));
        upd_vals.push_back(static_cast<std::uint32_t>(rng.Next()));
        ++c.updates;
      } else if (u < t_insert) {
        const std::uint32_t key = YcsbKey(next_insert_id++);
        ins_keys.push_back(key);
        ins_vals.push_back(YcsbVal(key));
        ++c.inserts;
      } else if (u < t_scan) {
        const std::uint64_t start = draw_id();
        const std::uint64_t len =
            1 + rng.NextBounded(std::max(config.max_scan_len, 1u));
        for (std::uint64_t j = 0; j < len; ++j) {
          read_keys.push_back(YcsbKey((start + j) % applied));
        }
        ++c.scans;
        c.scan_keys += len;
      } else {
        rmw_keys.push_back(YcsbKey(draw_id()));
        ++c.rmws;
      }
    }

    if (!read_keys.empty()) {
      read_vals.resize(read_keys.size());
      read_found.resize(read_keys.size());
      c.read_hits += table->BatchGet(read_keys.data(), read_keys.size(),
                                     read_vals.data(), read_found.data());
    }
    if (!rmw_keys.empty()) {
      rmw_vals.resize(rmw_keys.size());
      rmw_found.resize(rmw_keys.size());
      c.read_hits += table->BatchGet(rmw_keys.data(), rmw_keys.size(),
                                     rmw_vals.data(), rmw_found.data());
      // Modify: write back a value derived from the one just read.
      for (std::uint32_t& v : rmw_vals) v += 1;
      upd_ok.resize(rmw_keys.size());
      table->BatchUpdate(rmw_keys.data(), rmw_vals.data(), upd_ok.data(),
                         rmw_keys.size());
    }
    if (!ins_keys.empty()) {
      ins_ok.resize(ins_keys.size());
      table->BatchInsert(ins_keys.data(), ins_vals.data(), ins_ok.data(),
                         ins_keys.size());
      for (std::uint8_t r : ins_ok) c.insert_ok += r ? 1 : 0;
      // Advance the readable frontier past this batch's inserts. Rejected
      // inserts (table saturated) leave id gaps that read as misses — the
      // hit rate, not a crash, reports an undersized table.
      applied = next_insert_id;
    }
    if (!upd_keys.empty()) {
      upd_ok.resize(upd_keys.size());
      table->BatchUpdate(upd_keys.data(), upd_vals.data(), upd_ok.data(),
                         upd_keys.size());
    }
  }
  result.elapsed_s = timer.ElapsedSeconds();

  const std::uint64_t read_ops = c.reads + c.scans + c.rmws;
  const std::uint64_t write_ops = c.updates + c.inserts + c.rmws;
  const std::uint64_t probed = c.reads + c.scan_keys + c.rmws;
  if (result.elapsed_s > 0) {
    result.mops =
        static_cast<double>(config.ops) / result.elapsed_s / 1e6;
    result.read_mops =
        static_cast<double>(read_ops) / result.elapsed_s / 1e6;
    result.write_mops =
        static_cast<double>(write_ops) / result.elapsed_s / 1e6;
  }
  result.hit_rate = probed ? static_cast<double>(c.read_hits) /
                                 static_cast<double>(probed)
                           : 0.0;
  result.load_factor = table->load_factor();
  result.final_size = table->size();
  return result;
}

}  // namespace simdht
