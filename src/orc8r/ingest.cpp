#include "orc8r/ingest.h"

#include <algorithm>

#include "obs/host_profiler.h"

namespace magma::orc8r {

bool IngestQueue::submit(const std::string& gateway_id,
                         std::function<void()> apply) {
  ++stats_.submitted;
  std::size_t& gateway_pending = gateway_pending_[gateway_id];
  if (gateway_pending >= kGatewayQueueMax) {
    ++stats_.shed;
    return false;
  }
  ++gateway_pending;
  queue_.push_back(Item{gateway_id, std::move(apply)});
  stats_.max_gateway_queue =
      std::max<std::uint64_t>(stats_.max_gateway_queue, gateway_pending);
  stats_.max_pending =
      std::max<std::uint64_t>(stats_.max_pending, queue_.size());
  if (!pump_scheduled_) {
    pump_scheduled_ = true;
    kernel_.schedule(kPumpInterval, [this]() { pump(); });
  }
  return true;
}

void IngestQueue::pump() {
  // The pump is the orchestrator's southbound drain loop: at fleet scale it
  // runs every 5 ms of sim time, so its host cost scales with checkin rate.
  MAGMA_HOST_SCOPE("ingest", "pump");
  for (std::size_t done = 0; done < kBatchPerPump && !queue_.empty();
       ++done) {
    Item item = std::move(queue_.front());
    queue_.pop_front();
    auto it = gateway_pending_.find(item.gateway_id);
    if (--it->second == 0) gateway_pending_.erase(it);
    item.apply();
    ++stats_.processed;
  }
  if (!queue_.empty()) {
    kernel_.schedule(kPumpInterval, [this]() { pump(); });
  } else {
    pump_scheduled_ = false;
  }
}

}  // namespace magma::orc8r
