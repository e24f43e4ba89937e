// gtv::net — the transport under an in-process fleet of party threads.
//
// FleetTransport decorates the transport a fleet's shared TrafficMeter
// had (traffic().set_transport still decides where frames go) and changes
// how waiting ends: a wait never times out. fetch_frame polls the inner
// transport in short slices until a frame arrives or stop() is called, so
// an idle party can wait on its command link for as long as its owner
// idles, and one failed party cannot strand the others — stop() ends every
// wait within a slice, with a TransportError.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.h"

namespace gtv::net {

class FleetTransport : public Transport {
 public:
  explicit FleetTransport(std::shared_ptr<Transport> inner) : inner_(std::move(inner)) {}

  std::string kind() const override { return inner_->kind(); }
  void deliver_frame(const std::string& link, std::vector<std::uint8_t> frame) override {
    inner_->deliver_frame(link, std::move(frame));
  }
  // Ignores `timeout_ms`: waits until a frame arrives or stop() is called.
  std::vector<std::uint8_t> fetch_frame(const std::string& link, int /*timeout_ms*/) override {
    for (;;) {
      if (stopped()) throw TransportError("fleet: parties stopped");
      try {
        return inner_->fetch_frame(link, kPollMs);
      } catch (const TimeoutError&) {
        // nothing yet: check stop() and poll again
      }
    }
  }
  void discard_queued(const std::string& link) override { inner_->discard_queued(link); }

  void stop() { stopped_.store(true); }
  bool stopped() const { return stopped_.load(); }

 private:
  static constexpr int kPollMs = 50;  // how soon stop() reaches a waiting party
  std::shared_ptr<Transport> inner_;
  std::atomic<bool> stopped_{false};
};

}  // namespace gtv::net
