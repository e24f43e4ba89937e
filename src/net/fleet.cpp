#include "net/fleet.h"

namespace gtv::net {

namespace {
constexpr int kPollMs = 50;  // how soon stop() reaches a waiting party
}  // namespace

FleetTransport::FleetTransport(std::shared_ptr<Transport> inner,
                               std::set<std::string> command_links)
    : inner_(std::move(inner)), command_links_(std::move(command_links)) {}

void FleetTransport::deliver_frame(const std::string& link, std::vector<std::uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++in_flight_;
  }
  inner_->deliver_frame(link, std::move(frame));
}

std::vector<std::uint8_t> FleetTransport::fetch_frame(const std::string& link,
                                                      int /*timeout_ms*/) {
  const bool parks = command_links_.count(link) > 0;
  std::unique_lock<std::mutex> lock(mu_);
  if (parks) ++parked_;
  changed_.notify_all();
  for (;;) {
    if (stopped_) {
      if (parks) --parked_;
      throw TransportError("fleet: parties stopped");
    }
    lock.unlock();
    try {
      std::vector<std::uint8_t> frame = inner_->fetch_frame(link, kPollMs);
      lock.lock();
      --in_flight_;
      if (parks) --parked_;
      changed_.notify_all();
      return frame;
    } catch (const TimeoutError&) {
      lock.lock();
    } catch (...) {
      lock.lock();
      if (parks) --parked_;
      throw;
    }
  }
}

void FleetTransport::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  stopped_ = true;
  changed_.notify_all();
}

bool FleetTransport::stopped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopped_;
}

bool FleetTransport::quiescent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quiescent_locked();
}

void FleetTransport::await_quiescent() {
  std::unique_lock<std::mutex> lock(mu_);
  changed_.wait(lock, [this] { return stopped_ || quiescent_locked(); });
  if (stopped_) throw TransportError("fleet: parties stopped");
}

}  // namespace gtv::net
