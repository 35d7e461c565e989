// Simulated network elements: the frame a link carries and the node that
// receives it.
//
// A Frame is one serialized SCION packet (see dataplane/packet.h), the
// only thing that crosses a link: routers forward using the state each
// packet carries, so nothing else needs to travel. The IP-UDP underlay's
// and the circuit's own header bytes are not in the frame; the link
// counts them (LinkConfig::encap_overhead_bytes).
#pragma once

#include <memory>
#include <span>
#include <string>

#include "common/buffer.h"
#include "common/isd_as.h"
#include "common/time.h"

namespace sciera::simnet {

struct Frame {
  Bytes bytes;  // the serialized packet
};

// Immutable once sent. The shared_ptr's type-erased deleter lets a sender
// recycle its frames (dataplane::FramePool) without simnet knowing how.
using FramePtr = std::shared_ptr<const Frame>;

// Where a frame arrived: the local interface id the owner assigned to its
// end of the link, and the arrival time.
struct Arrival {
  IfaceId local_iface = 0;
  SimTime time = 0;
};

// A receiver endpoint. Border routers implement it; tests substitute
// sinks.
class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  // Every surviving frame of one link's same-tick batch, in send order,
  // in a single call (shared Arrival: same interface, same time).
  virtual void receive_batch(std::span<const FramePtr> batch,
                             const Arrival& arrival) = 0;

 private:
  std::string name_;
};

}  // namespace sciera::simnet
