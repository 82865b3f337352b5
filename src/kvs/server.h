// Multi-Get key-value server over the simulated RDMA transport (paper
// Section VI-A).
//
// One worker thread per channel receives a frame, hands it to the shared
// KvRequestEngine (kvs/request_engine.h), flushes the engine and sends the
// response. A Multi-Get batch is thus always one client's request, the
// setup Fig 11 measures. All workers share the engine's registry, rolling
// windows and metric catalogue; malformed frames are counted and dropped.
#ifndef SIMDHT_KVS_SERVER_H_
#define SIMDHT_KVS_SERVER_H_

#include <thread>
#include <vector>

#include "kvs/request_engine.h"
#include "kvs/transport.h"

namespace simdht {

class KvServer {
 public:
  // The backend is shared by every worker (the paper's shared-HT,
  // full-subscription setup). `metrics` is optional and caller-owned (it
  // must outlive the server); when null the server keeps a private one.
  KvServer(KvBackend* backend, std::vector<Channel*> channels,
           MetricsRegistry* metrics = nullptr);
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  // Starts the workers; each exits on a Shutdown request or channel close.
  void Start();
  void Join();

  // The kvs_metrics:: series of every worker. Thread-safe.
  MetricsSnapshot Metrics() const { return engine_.Metrics(); }

 private:
  void WorkerLoop(Channel* channel, std::uint64_t id);

  KvRequestEngine engine_;
  std::vector<Channel*> channels_;
  std::vector<std::thread> workers_;
};

}  // namespace simdht

#endif  // SIMDHT_KVS_SERVER_H_
