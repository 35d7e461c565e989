// Storage for local deliveries in flight: what the border router hands to
// a host after the intra-AS hop, and what a host stack hands to a socket
// after its own delay. A scheduled delivery captures the pool (or its
// owner) and a slot index, 16 bytes of trivially copyable state that fit
// std::function's local buffer, instead of owning a copy of the packet.
// Once a pool is warm, parking and delivering allocate nothing.
//
// Lifetime rule: a pool must live as long as the simulator its events are
// scheduled on. The router's pool is a router member and the host stacks'
// pool a ScionNetwork member; both live as long as the network's
// simulator. A host stack destroyed with deliveries pending therefore
// leaves them valid, and each slot holds its receiver by shared_ptr, so
// they are delivered as if the stack still existed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/time.h"
#include "dataplane/packet.h"

namespace sciera::dataplane {

// A pool of reused T slots. A released slot keeps its contents, and with
// them their capacity, for its next use. Slots never move, so a delivery
// may park another one while its own slot is still in use.
template <typename T>
class SlotPool {
 public:
  SlotPool() = default;
  // Scheduled deliveries hold the pool's address.
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  [[nodiscard]] std::uint32_t acquire() {
    if (free_.empty()) {
      slots_.push_back(std::make_unique<T>());
      // Room for every slot on the free list: release() never allocates.
      free_.reserve(slots_.size());
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  [[nodiscard]] T& operator[](std::uint32_t slot) { return *slots_[slot]; }
  void release(std::uint32_t slot) { free_.push_back(slot); }

 private:
  std::vector<std::unique_ptr<T>> slots_;
  std::vector<std::uint32_t> free_;
};

// What a host stack calls for each UDP datagram delivered to a bound port.
using UdpReceiver = std::function<void(
    const ScionPacket& packet, const UdpDatagram& datagram, SimTime arrival)>;

// A UDP delivery accepted by a host stack and not yet handed to its
// socket. `arrival` is the time the socket's receiver is called at.
struct ParkedDatagram {
  ScionPacket packet;
  UdpDatagram datagram;
  std::shared_ptr<const UdpReceiver> receiver;
  SimTime arrival = 0;
};

}  // namespace sciera::dataplane
