#include "kvs/server.h"

namespace simdht {

KvServer::KvServer(KvBackend* backend, std::vector<Channel*> channels,
                   MetricsRegistry* metrics)
    : engine_(backend, metrics), channels_(std::move(channels)) {}

KvServer::~KvServer() { Join(); }

void KvServer::Start() {
  workers_.reserve(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(channels_[i], i); });
  }
}

void KvServer::Join() {
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void KvServer::WorkerLoop(Channel* channel, std::uint64_t id) {
  using Verdict = KvRequestEngine::Verdict;
  KvRequestEngine::Worker worker(&engine_);
  Buffer request;
  Buffer reply;
  // A batch holds this one channel's request: one response, one send.
  const KvRequestEngine::ReplySink sink{
      [&reply](std::uint64_t, const Buffer& response) { reply = response; },
      [&] { channel->ServerSend(reply); }};
  engine_.CountConnection();
  while (channel->ServerRecv(&request)) {
    // A malformed frame is dropped: answering it would desynchronize the
    // client's request/response pairing.
    switch (worker.Handle(request, id, &reply)) {
      case Verdict::kReply: channel->ServerSend(reply); break;
      case Verdict::kQueued: worker.Flush(sink); break;
      case Verdict::kShutdown: return;
      case Verdict::kMalformed: break;
    }
  }
}

}  // namespace simdht
