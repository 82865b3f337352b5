// Prometheus text exposition (format 0.0.4) writer.
//
// The serving subsystem exposes its live metrics as `simdht_*` families —
// over the METRICS admin op and the optional --metrics-port HTTP listener —
// so a standard Prometheus scrape (or `curl`) can watch a running server.
// This writer only formats. Which families exist, their labels and help
// text, and what feeds them is defined once, in the serving-metric
// catalogue (KvSeriesCatalogue() in kvs/request_engine.h; the table is
// also in docs/observability.md).
#ifndef SIMDHT_OBS_PROMETHEUS_H_
#define SIMDHT_OBS_PROMETHEUS_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simdht {

class PrometheusWriter {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  // Emits the # HELP / # TYPE header for a family. Call once per family,
  // before its samples; `type` is "counter" or "gauge".
  void Family(std::string_view name, std::string_view help,
              std::string_view type);

  // Emits one sample line. Label values are escaped per the format spec
  // (backslash, double quote, newline).
  void Sample(std::string_view name, double value);
  void Sample(std::string_view name, const Labels& labels, double value);

  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

}  // namespace simdht

#endif  // SIMDHT_OBS_PROMETHEUS_H_
