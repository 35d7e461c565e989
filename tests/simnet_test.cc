#include <gtest/gtest.h>

#include "simnet/link.h"
#include "simnet/node.h"
#include "simnet/simulator.h"

namespace sciera::simnet {
namespace {

// A frame of `size` packet bytes.
FramePtr frame_of(std::size_t size) {
  return std::make_shared<const Frame>(Frame{Bytes(size)});
}

class Sink : public Node {
 public:
  explicit Sink(std::string name) : Node(std::move(name)) {}
  void receive_batch(std::span<const FramePtr> batch,
                     const Arrival& arrival) override {
    arrivals.insert(arrivals.end(), batch.size(), arrival);
  }
  std::vector<Arrival> arrivals;
};

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NestedSchedulingWorks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule_after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run_all();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

// trace() records into the simulator's own recorder, stamped with the
// now() and executed_events() the calling event reads.
TEST(Simulator, TraceStampsNowAndExecutedEvents) {
  Simulator sim;
  const obs::TraceId subject = sim.recorder().intern("probe");
  SimTime seen_time = -1;
  std::uint64_t seen_seq = 0;
  sim.schedule(10, [] {});
  sim.schedule(25, [&] {
    seen_time = sim.now();
    seen_seq = sim.executed_events();
    sim.trace(obs::TraceType::kLinkTransition, subject,
              obs::TraceDetail::kLinkDown, 7, -3);
  });
  sim.run_all();
  const auto events = sim.recorder().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].time, 25);
  EXPECT_EQ(events[0].time, seen_time);
  EXPECT_EQ(events[0].seq, 2u);
  EXPECT_EQ(events[0].seq, seen_seq);
  EXPECT_EQ(events[0].type, obs::TraceType::kLinkTransition);
  EXPECT_EQ(events[0].subject, subject);
  EXPECT_EQ(events[0].detail, obs::TraceDetail::kLinkDown);
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[0].arg2, 0u);
  EXPECT_EQ(events[0].value, -3);
}

TEST(Link, DeliversAfterPropagationAndSerialization) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  LinkConfig cfg;
  cfg.propagation_delay = 10 * kMillisecond;
  cfg.bandwidth_bps = 8e6;  // 1 byte per microsecond
  cfg.encap_overhead_bytes = 0;
  Link link{sim, cfg, Rng{1}};
  link.attach(0, &a, 1);
  link.attach(1, &b, 7);

  link.send(0, frame_of(1000));
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 1u);
  // 1000 bytes at 1 B/us = 1ms serialization + 10ms propagation.
  EXPECT_EQ(b.arrivals[0].time, 11 * kMillisecond);
  EXPECT_EQ(b.arrivals[0].local_iface, 7);
  EXPECT_EQ(link.metrics().delivered->value(), 1u);
}

TEST(Link, SerializationQueuesBackToBack) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  LinkConfig cfg;
  cfg.propagation_delay = 0;
  cfg.bandwidth_bps = 8e6;
  cfg.encap_overhead_bytes = 0;
  Link link{sim, cfg, Rng{1}};
  link.attach(0, &a, 1);
  link.attach(1, &b, 1);
  // Two 1000-byte packets sent at t=0 serialize sequentially.
  link.send(0, frame_of(1000));
  link.send(0, frame_of(1000));
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(b.arrivals[0].time, 1 * kMillisecond);
  EXPECT_EQ(b.arrivals[1].time, 2 * kMillisecond);
}

TEST(Link, DownLinkDropsTraffic) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  Link link{sim, LinkConfig{}, Rng{1}};
  link.attach(0, &a, 1);
  link.attach(1, &b, 1);
  link.set_up(false);
  link.send(0, frame_of(100));
  sim.run_all();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(link.metrics().dropped_down->value(), 1u);
  link.set_up(true);
  link.send(0, frame_of(100));
  sim.run_all();
  EXPECT_EQ(b.arrivals.size(), 1u);
}

// Regression: set_up(false) used to drop only at send time — a frame
// already on the wire would still be delivered after the circuit died.
// A down transition must cancel in-flight deliveries.
TEST(Link, DownTransitionCancelsInFlightDeliveries) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  LinkConfig cfg;
  cfg.propagation_delay = 10 * kMillisecond;
  Link link{sim, cfg, Rng{1}};
  link.attach(0, &a, 1);
  link.attach(1, &b, 1);

  link.send(0, frame_of(100));
  // The failure hits mid-flight: after the send, before the delivery.
  sim.schedule_after(5 * kMillisecond, [&] { link.set_up(false); });
  sim.run_all();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(link.metrics().dropped_down->value(), 1u);
  EXPECT_EQ(link.metrics().delivered->value(), 0u);
}

// A frame sent before a down/up flap is lost even though the link is up
// again at its scheduled delivery time: the circuit it was riding died.
TEST(Link, FlapDuringFlightStillDropsTheFrame) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  LinkConfig cfg;
  cfg.propagation_delay = 10 * kMillisecond;
  Link link{sim, cfg, Rng{1}};
  link.attach(0, &a, 1);
  link.attach(1, &b, 1);

  link.send(0, frame_of(100));
  sim.schedule_after(2 * kMillisecond, [&] { link.set_up(false); });
  sim.schedule_after(4 * kMillisecond, [&] { link.set_up(true); });
  link.send(0, frame_of(100));  // also pre-flap
  sim.run_all();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(link.metrics().dropped_down->value(), 2u);

  // Traffic sent after the link recovered flows normally.
  link.send(0, frame_of(100));
  sim.run_all();
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(link.metrics().delivered->value(), 1u);
}

// Regression: re-upping a link immediately after a cut must start from an
// empty pipe. The cut drains the serializer backlog and counts every
// cancelled frame exactly once at cut time — cancelled frames must not
// resurrect, must not be double-counted when their old delivery events
// fire, and their ghost backlog must neither delay nor tail-drop traffic
// sent after the recovery.
TEST(Link, ReUpAfterCutStartsFromEmptyPipe) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  LinkConfig cfg;
  cfg.propagation_delay = 10 * kMillisecond;
  cfg.bandwidth_bps = 8e6;  // 1 byte per microsecond
  cfg.encap_overhead_bytes = 0;
  cfg.queue_capacity = 4;
  Link link{sim, cfg, Rng{1}};
  link.attach(0, &a, 1);
  link.attach(1, &b, 1);

  // Five 1000-byte frames at t=0: 5ms of serializer backlog, and the
  // first several are already propagating when the cut lands.
  for (int i = 0; i < 5; ++i) link.send(0, frame_of(1000));
  sim.schedule(5500 * kMicrosecond, [&] {
    link.set_up(false);
    // Every queued/in-flight frame is cancelled and counted at cut time.
    EXPECT_EQ(link.metrics().dropped_down->value(), 5u);
    link.set_up(true);  // same-tick recovery
    link.send(0, frame_of(1000));
  });
  sim.run_all();

  // Only the post-recovery frame arrives, at clean-pipe latency (1ms
  // serialization + 10ms propagation after the 5.5ms cut) — the 5ms ghost
  // backlog from before the cut is gone.
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].time, 5500 * kMicrosecond + 11 * kMillisecond);
  EXPECT_EQ(link.metrics().delivered->value(), 1u);
  // The stale delivery events fired without double-counting the drops.
  EXPECT_EQ(link.metrics().dropped_down->value(), 5u);
  EXPECT_EQ(link.metrics().dropped_queue->value(), 0u);
}

// Same-tick batched frames cancelled by a cut stay cancelled when the
// link re-ups before their shared delivery event fires.
TEST(Link, CutCancelsSameTickBatchDespiteReUp) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  LinkConfig cfg;
  cfg.propagation_delay = 10 * kMillisecond;
  cfg.encap_overhead_bytes = 0;
  Link link{sim, cfg, Rng{1}};
  link.attach(0, &a, 1);
  link.attach(1, &b, 1);

  // Two zero-size frames serialize instantly, so both land in the same
  // delivery batch at t=10ms.
  link.send(0, frame_of(0));
  link.send(0, frame_of(0));
  sim.schedule_after(2 * kMillisecond, [&] {
    link.set_up(false);
    link.set_up(true);
  });
  // A post-flap frame from the same sender still flows.
  sim.schedule_after(3 * kMillisecond, [&] {
    link.send(0, frame_of(0));
  });
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].time, 13 * kMillisecond);
  EXPECT_EQ(link.metrics().dropped_down->value(), 2u);
  EXPECT_EQ(link.metrics().delivered->value(), 1u);
}

// A scheduled mid-flight failure replays deterministically (the drop is
// part of the audited event schedule, not a wall-clock race).
TEST(Link, MidFlightFailureScheduleIsDeterministic) {
  const auto scenario = [] {
    Simulator sim;
    Sink a{"a"}, b{"b"};
    LinkConfig cfg;
    cfg.propagation_delay = 10 * kMillisecond;
    Link link{sim, cfg, Rng{3}};
    link.attach(0, &a, 1);
    link.attach(1, &b, 1);
    for (int i = 0; i < 5; ++i) {
      sim.schedule(i * kMillisecond, [&link] { link.send(0, frame_of(200)); });
    }
    sim.schedule(7 * kMillisecond, [&] { link.set_up(false); });
    sim.run_all();
    EXPECT_EQ(link.metrics().dropped_down->value(), 5u);
    return sim.schedule_digest();
  };
  const auto first = scenario();
  const auto second = scenario();
  EXPECT_EQ(first, second);
}

TEST(Link, LossProbabilityDropsStatistically) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  LinkConfig cfg;
  cfg.loss_probability = 0.5;
  cfg.queue_capacity = 2000;  // all sent at t=0; don't tail-drop here
  Link link{sim, cfg, Rng{42}};
  link.attach(0, &a, 1);
  link.attach(1, &b, 1);
  for (int i = 0; i < 1000; ++i) link.send(0, frame_of(10));
  sim.run_all();
  EXPECT_GT(b.arrivals.size(), 400u);
  EXPECT_LT(b.arrivals.size(), 600u);
  EXPECT_EQ(b.arrivals.size() + link.metrics().dropped_loss->value(), 1000u);
}

TEST(Link, QueueOverflowTailDrops) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  LinkConfig cfg;
  cfg.propagation_delay = 0;
  cfg.bandwidth_bps = 8e6;  // slow: 1 B/us
  cfg.queue_capacity = 4;
  Link link{sim, cfg, Rng{1}};
  link.attach(0, &a, 1);
  link.attach(1, &b, 1);
  for (int i = 0; i < 100; ++i) link.send(0, frame_of(1000));
  sim.run_all();
  EXPECT_GT(link.metrics().dropped_queue->value(), 0u);
  EXPECT_LT(b.arrivals.size(), 100u);
}

TEST(Link, IsBidirectional) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  Link link{sim, LinkConfig{}, Rng{1}};
  link.attach(0, &a, 3);
  link.attach(1, &b, 4);
  link.send(0, frame_of(10));
  link.send(1, frame_of(10));
  sim.run_all();
  EXPECT_EQ(a.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(a.arrivals[0].local_iface, 3);
  EXPECT_EQ(link.peer_of(0), &b);
  EXPECT_EQ(link.peer_of(1), &a);
}

TEST(Link, JitterSpreadsDeliveryTimes) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  LinkConfig cfg;
  cfg.propagation_delay = 10 * kMillisecond;
  cfg.jitter_sigma = 0.1;
  Link link{sim, cfg, Rng{7}};
  link.attach(0, &a, 1);
  link.attach(1, &b, 1);
  for (int i = 0; i < 50; ++i) link.send(0, frame_of(10));
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 50u);
  SimTime min_t = b.arrivals[0].time, max_t = b.arrivals[0].time;
  for (const auto& arr : b.arrivals) {
    min_t = std::min(min_t, arr.time);
    max_t = std::max(max_t, arr.time);
  }
  EXPECT_LT(min_t, max_t);                       // jitter varies
  EXPECT_GT(min_t, 5 * kMillisecond);            // but stays sane
  EXPECT_LT(max_t, 30 * kMillisecond);
}


TEST(Link, EncapOverheadSlowsSerialization) {
  Simulator sim;
  Sink a{"a"}, b{"b"};
  LinkConfig vlan;
  vlan.propagation_delay = 0;
  vlan.bandwidth_bps = 8e6;  // 1 byte per microsecond
  vlan.encap_overhead_bytes = 4;
  LinkConfig vxlan = vlan;
  vxlan.encap_overhead_bytes = 50;
  Link vlan_link{sim, vlan, Rng{1}};
  vlan_link.attach(0, &a, 1);
  vlan_link.attach(1, &b, 1);
  Link vxlan_link{sim, vxlan, Rng{1}};
  Sink c{"c"}, d{"d"};
  vxlan_link.attach(0, &c, 1);
  vxlan_link.attach(1, &d, 1);
  vlan_link.send(0, frame_of(1000));
  vxlan_link.send(0, frame_of(1000));
  sim.run_all();
  ASSERT_EQ(b.arrivals.size(), 1u);
  ASSERT_EQ(d.arrivals.size(), 1u);
  // VXLAN adds 46 extra bytes of serialization at 1 B/us (floating-point
  // bandwidth math may be a nanosecond off).
  EXPECT_NEAR(static_cast<double>(d.arrivals[0].time - b.arrivals[0].time),
              static_cast<double>(46 * kMicrosecond), 10.0);
}

}  // namespace
}  // namespace sciera::simnet
