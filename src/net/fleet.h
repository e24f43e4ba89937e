// gtv::net — the transport under an in-process fleet of party threads.
//
// FleetTransport decorates the transport a fleet's shared TrafficMeter
// had (traffic().set_transport still decides where frames go) and changes
// two things about waiting:
//
//   - a wait never times out: fetch_frame polls the inner transport in
//     short slices until a frame arrives or stop() is called. An idle
//     party can wait on its command link for as long as its owner idles,
//     and one failed party cannot strand the others — stop() ends every
//     wait within a slice, with a TransportError;
//   - it tracks quiescence: every party parked on its command link and no
//     frame in flight. That is the only state in which the owner may read
//     party objects from another thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "net/transport.h"

namespace gtv::net {

class FleetTransport : public Transport {
 public:
  // `command_links` holds each party's command link, one per party.
  FleetTransport(std::shared_ptr<Transport> inner, std::set<std::string> command_links);

  std::string kind() const override { return inner_->kind(); }
  void deliver_frame(const std::string& link, std::vector<std::uint8_t> frame) override;
  // Ignores `timeout_ms`: waits until a frame arrives or stop() is called.
  std::vector<std::uint8_t> fetch_frame(const std::string& link, int timeout_ms) override;
  void discard_queued(const std::string& link) override { inner_->discard_queued(link); }

  void stop();
  bool stopped() const;
  bool quiescent() const;
  // Blocks until quiescent; throws TransportError once stopped.
  void await_quiescent();

 private:
  bool quiescent_locked() const { return in_flight_ == 0 && parked_ == command_links_.size(); }

  std::shared_ptr<Transport> inner_;
  const std::set<std::string> command_links_;
  mutable std::mutex mu_;
  std::condition_variable changed_;
  std::size_t in_flight_ = 0;  // frames delivered but not yet fetched
  std::size_t parked_ = 0;     // parties waiting on their command link
  bool stopped_ = false;
};

}  // namespace gtv::net
