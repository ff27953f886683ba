#include "src/net/client.h"

#include "src/obs/metrics.h"
#include "src/sim/cycles.h"

namespace asbestos {

bool HttpLoadClient::Step() {
  // Open new connections up to the concurrency limit.
  while (static_cast<int>(active_.size()) < concurrency_ && !queue_.empty()) {
    auto [request, tag] = std::move(queue_.front());
    queue_.pop_front();
    Active a;
    a.conn = net_->ClientConnect(port_);
    a.tag = tag;
    a.start_cycles = GetCycleAccounting().now();
    if (a.conn == kNoConn) {
      ++failures_;
      continue;
    }
    net_->ClientSend(a.conn, std::move(request));
    active_.push_back(std::move(a));
  }

  // Collect responses.
  for (size_t i = 0; i < active_.size();) {
    Active& a = active_[i];
    const std::string bytes = net_->ClientTakeReceived(a.conn);
    if (!bytes.empty()) {
      a.reader.Feed(bytes);
    }
    if (a.reader.state() == HttpResponseReader::State::kComplete) {
      Result r;
      r.tag = a.tag;
      r.status = a.reader.status();
      r.body = a.reader.body();
      r.start_cycles = a.start_cycles;
      r.end_cycles = GetCycleAccounting().now();
      // Per-request latency distribution on the virtual clock (the paper's
      // Figure-7 measurement, as a histogram instead of a scatter).
      static obs::CycleHistogram& lat =
          obs::Registry::Get().histogram("okws.request_cycles");
      lat.Record(r.end_cycles - r.start_cycles);
      results_.push_back(std::move(r));
      net_->ClientClose(a.conn);
      active_.erase(active_.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    if (a.reader.state() == HttpResponseReader::State::kError ||
        (net_->ClientSeesClosed(a.conn) && bytes.empty())) {
      ++failures_;
      net_->ClientClose(a.conn);
      active_.erase(active_.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
  return !idle();
}

}  // namespace asbestos
