// Exact allocation gates on the per-packet fast paths, counts rather than
// timings. Border router: once warm, the batched router forwards same-tick
// frame batches with zero heap allocations and zero AES key schedules, and
// forwards every frame it was sent. Local delivery: once warm, handing a
// packet from the router to a host stack and on to a socket allocates
// nothing. Path selection: a warm send walks a ranking of the daemon's
// shared set, so its allocations do not grow with the number of paths, and
// a warm send_to allocates an exact, named count. Beacon signing: each
// entry's payload is one allocation.
//
// This is its own executable because it replaces global operator new to
// count allocations. The replacement set must be COMPLETE (throwing,
// nothrow, array, sized): a partial set leaves some variants to the
// runtime — under ASan that splits one logical allocation family across
// two allocators, and e.g. stable_sort's nothrow-new temporary buffer
// trips alloc-dealloc-mismatch. The deletes are noinline: inlined into a
// `new T` ... `delete` pair, their free() reads to GCC as freeing an
// operator-new pointer (-Wmismatched-new-delete, fatal under -Werror).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "controlplane/beacon.h"
#include "crypto/aes128.h"
#include "dataplane/frame_pool.h"
#include "dataplane/router.h"
#include "endhost/pan.h"
#include "simnet/link.h"
#include "simnet/simulator.h"
#include "topology/sciera_net.h"

namespace {
// Relaxed atomic: gtest and the library may allocate from any thread.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sciera::dataplane {
namespace {

// The far end of the egress link: counts deliveries, parses nothing.
class Sink final : public simnet::Node {
 public:
  Sink() : simnet::Node("router-alloc-sink") {}
  void receive(const simnet::MessagePtr&, const simnet::Arrival&) override {
    ++received_;
  }
  [[nodiscard]] std::uint64_t received() const { return received_; }

 private:
  std::uint64_t received_ = 0;
};

// One packet per flow, each with its own segment timestamp, so every
// flow's MAC input block is distinct.
std::vector<Bytes> flow_packets(const FwdKey& key, IsdAs ia, IsdAs dst_ia,
                                std::size_t flows) {
  std::vector<Bytes> wire;
  for (std::size_t f = 0; f < flows; ++f) {
    ScionPacket pkt;
    pkt.flow_id = static_cast<std::uint32_t>(f);
    pkt.dst = Address{dst_ia, 0x0A000001};
    pkt.src = Address{ia, 0x0A000002};
    InfoField info;
    info.construction_dir = true;
    info.seg_id = static_cast<std::uint16_t>(0x4000 + f);
    info.timestamp = 1'700'000'000 + static_cast<std::uint32_t>(f);
    HopField here;  // this router's hop: in over iface 1, out over iface 2
    here.exp_time = 255;
    here.cons_ingress = 1;
    here.cons_egress = 2;
    here.mac = compute_hop_mac(key, info.seg_id, info.timestamp, here);
    HopField next;  // the neighbor's final hop, never verified here
    next.exp_time = 255;
    next.cons_ingress = 7;
    next.cons_egress = 0;
    pkt.path.info = {info};
    pkt.path.seg_len = {2, 0, 0};
    pkt.path.hops = {here, next};
    pkt.payload = bytes_of("router-bench-payload");
    wire.push_back(pkt.serialize().value());
  }
  return wire;
}

TEST(RouterFastPath, WarmBatchedWindowAllocatesAndSchedulesNothing) {
  // 64 distinct MAC input blocks cycled through same-tick batches of 32:
  // enough flows that the direct-mapped MAC cache sees real collision
  // evictions rather than one always-hot entry.
  constexpr std::size_t kFlows = 64;
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kWarmupRounds = 4;
  constexpr std::size_t kRounds = 120;

  // Binary-heap scheduler: its event storage is one flat vector whose
  // capacity survives rounds, so steady-state scheduling is allocation-
  // free. The calendar wheel would charge first-touch bucket-vector
  // growth to the router as sim time walks across fresh buckets — a
  // scheduler cost, not the router's.
  simnet::SchedulerConfig sched;
  sched.kind = simnet::SchedulerKind::kBinaryHeap;
  simnet::Simulator sim{sched};
  const IsdAs ia = IsdAs::parse("71-225").value();
  const IsdAs dst_ia = IsdAs::parse("71-2:0:5c").value();
  const FwdKey key = derive_fwd_key(bytes_of("router-bench-master-secret"));
  BorderRouter router{sim, ia, key, BorderRouter::Config{}};
  Sink sink;
  simnet::Link egress{sim, simnet::LinkConfig{}, Rng{0xBE7C, "router-bench"}};
  egress.attach(0, &router, 2);
  egress.attach(1, &sink, 1);
  router.attach_iface(2, &egress, 0);
  const std::vector<Bytes> wire = flow_packets(key, ia, dst_ia, kFlows);

  std::vector<simnet::MessagePtr> batch;
  batch.reserve(kBatch);
  std::size_t next_flow = 0;
  const auto fire_batch = [&] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      auto frame = FramePool::global().acquire();
      frame->scion_bytes.assign(wire[next_flow].begin(),
                                wire[next_flow].end());
      next_flow = (next_flow + 1) % kFlows;
      batch.push_back(std::move(frame));
    }
    router.receive_batch(batch, simnet::Arrival{nullptr, 1, sim.now()});
    batch.clear();  // drop our frame refs before draining deliveries
    sim.run_all();
  };
  // Warm-up fills the frame pool, the router's batch scratch and the
  // MAC cache; steady state is what the window measures.
  for (std::size_t r = 0; r < kWarmupRounds; ++r) fire_batch();

  const std::uint64_t forwarded_before = router.stats().forwarded;
  const std::uint64_t received_before = sink.received();
  const std::uint64_t schedules_before = crypto::Aes128::key_schedules_run();
  const std::uint64_t allocs_before = g_allocs.load();
  for (std::size_t r = 0; r < kRounds; ++r) fire_batch();
  const std::uint64_t allocs = g_allocs.load() - allocs_before;
  const std::uint64_t schedules =
      crypto::Aes128::key_schedules_run() - schedules_before;

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(schedules, 0u);
  const std::uint64_t sent = kRounds * kBatch;
  EXPECT_EQ(router.stats().forwarded - forwarded_before, sent);
  EXPECT_EQ(sink.received() - received_before, sent);
}

}  // namespace
}  // namespace sciera::dataplane

namespace sciera::controlplane {
namespace {

// Beaconing signs and verifies one payload per entry per sweep. Each is
// sized before it is written: one allocation, however many peers the
// entry lists, and not a byte of spare capacity.
TEST(BeaconPayload, SigningPayloadIsOneAllocation) {
  AsEntry entry;
  entry.ia = topology::ases::uva();
  const Bytes chain(32, 0xab);
  for (const std::size_t peers : {std::size_t{0}, std::size_t{3}}) {
    entry.peers.resize(peers);
    const std::uint64_t before = g_allocs.load();
    const Bytes payload = entry.signing_payload(chain);
    EXPECT_EQ(g_allocs.load() - before, 1u) << peers << " peers";
    EXPECT_EQ(payload.size(), 49 + chain.size() + 24 * peers);
    EXPECT_EQ(payload.capacity(), payload.size());
  }
  const Pcb pcb;
  const std::uint64_t before = g_allocs.load();
  const Bytes header = pcb.header_payload();
  EXPECT_EQ(g_allocs.load() - before, 1u);
  EXPECT_EQ(header.size(), 23u);
  EXPECT_EQ(header.capacity(), header.size());
}

}  // namespace
}  // namespace sciera::controlplane

namespace sciera::endhost {
namespace {

namespace a = topology::ases;

// A daemon-mode PAN socket at `home` (UVa by default, whose destinations
// range from 3 combined paths (Princeton) to 96 (Korea University)).
struct SelectionFixture {
  explicit SelectionFixture(
      IsdAs home = a::uva(),
      simnet::SchedulerKind scheduler = simnet::SchedulerKind::kCalendarQueue)
      : net(topology::build_sciera(), options(scheduler)),
        daemon(net, home),
        ctx(PanContext::Builder{}
                .net(net)
                .address({home, 0x0A000001})
                .daemon(daemon)
                .build(Rng{1})
                .value()),
        socket(PanSocket::open(*ctx, 0,
                               [](const dataplane::Address&, std::uint16_t,
                                  const Bytes&, SimTime) {})
                   .value()) {}

  static controlplane::ScionNetwork::Options options(
      simnet::SchedulerKind scheduler) {
    controlplane::ScionNetwork::Options options;
    options.scheduler.kind = scheduler;
    return options;
  }

  controlplane::ScionNetwork net;
  Daemon daemon;
  std::unique_ptr<PanContext> ctx;
  std::unique_ptr<PanSocket> socket;
};

TEST(PathSelection, WarmSendAllocationsDoNotGrowWithThePathCount) {
  SelectionFixture f;
  const IsdAs few = a::princeton();
  const IsdAs many = a::korea_univ();
  ASSERT_EQ(f.daemon.paths(few).size(), 3u);
  ASSERT_EQ(f.daemon.paths(many).size(), 96u);
  // One warm resolve: a cache hit's bookkeeping plus one copy of the
  // chosen path, whatever the size of the set it was chosen from.
  const auto allocs_of = [&f](IsdAs dst) {
    const std::uint64_t before = g_allocs.load();
    const bool ok = f.socket->current_path(dst).ok();
    const std::uint64_t allocs = g_allocs.load() - before;
    EXPECT_TRUE(ok) << dst.to_string();
    return allocs;
  };
  EXPECT_EQ(allocs_of(few), allocs_of(many));
}

// Once a set is ranked, picking its best usable path allocates nothing.
TEST(PathSelection, BestOverAWarmSetAllocatesNothing) {
  SelectionFixture f;
  const IsdAs dst = a::korea_univ();
  const controlplane::PathSet set = f.daemon.path_set(dst);
  ASSERT_EQ(set->size(), 96u);
  const auto usable = [&f](const controlplane::Path& path) {
    return f.daemon.path_alive(path) && f.net.path_usable(path);
  };
  PathSelector selector;
  ASSERT_NE(selector.first(dst, set, usable), nullptr);  // ranks the set
  const std::uint64_t before = g_allocs.load();
  const controlplane::Path* best = selector.first(dst, set, usable);
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(selector.rankings_built(), 1u);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->fingerprint(),
            selector.policy().apply(*set).front().fingerprint());
}

// A warm send_to to another AS makes exactly five allocations, at 3 paths
// and at 96, from UVa and from KISTI Daejeon:
//   1. the receipt's copy of the path fingerprint (longer than the
//      small-string buffer);
//   2. the packet's copy of the chosen path's info fields;
//   3. and of its hop fields;
//   4. the datagram's copy of the payload;
//   5. the datagram's serialization, reserved to its exact size.
// The route to the router allocates nothing, nor does the daemon's
// lookup: its trace event holds the daemon's interned subject id, so the
// subject's length costs nothing. At KISTI Daejeon the subject,
// "daemon-71-2:0:3b", is 16 characters, one more than the small-string
// buffer; when each record copied it, a send from there made 6. The
// binary-heap scheduler keeps the count exact, as in RouterFastPath: the
// calendar wheel would add first-touch bucket growth, a scheduler cost.
TEST(PathSelection, WarmSendToMakesExactlyTheNamedAllocations) {
  const Bytes payload(64, 0x5A);
  for (const IsdAs home : {a::uva(), a::kisti_dj()}) {
    SelectionFixture f{home, simnet::SchedulerKind::kBinaryHeap};
    for (const IsdAs dst : {a::princeton(), a::korea_univ()}) {
      const dataplane::Address peer{dst, 0x0A000002};
      ASSERT_TRUE(f.socket->send_to(peer, 9000, payload).ok());  // warm-up
      f.net.sim().run_all();
      const std::uint64_t before = g_allocs.load();
      const auto receipt = f.socket->send_to(peer, 9000, payload);
      const std::uint64_t allocs = g_allocs.load() - before;
      ASSERT_TRUE(receipt.ok()) << home.to_string() << " -> "
                                << dst.to_string();
      EXPECT_EQ(allocs, 5u) << home.to_string() << " -> " << dst.to_string();
      f.net.sim().run_all();
    }
    EXPECT_EQ(f.socket->rankings_built(), 2u) << home.to_string();
  }
}

// A warm window of local deliveries from the router to a socket:
// BorderRouter::deliver_local → HostStack::on_local_delivery → the PAN
// socket's receiver, for packets injected by a host of the AS and for
// packets arriving from the wire. Each packet is parked twice, for the
// intra-AS hop and for the host's own delay, in reused slots; no packet
// or receiver is copied into a scheduled closure.
TEST(LocalDelivery, WarmWindowAllocatesNothing) {
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kWarmupRounds = 4;
  constexpr std::size_t kRounds = 120;

  // Binary-heap scheduler, as in RouterFastPath: its event storage keeps
  // its capacity across rounds.
  controlplane::ScionNetwork::Options options;
  options.scheduler.kind = simnet::SchedulerKind::kBinaryHeap;
  controlplane::ScionNetwork net{topology::build_sciera(), options};
  Daemon daemon{net, a::uva()};
  const dataplane::Address host{a::uva(), 0x0A000001};
  auto ctx = PanContext::Builder{}
                 .net(net)
                 .address(host)
                 .daemon(daemon)
                 .build(Rng{1})
                 .value();
  std::uint64_t received = 0;
  std::uint64_t received_bytes = 0;
  auto socket =
      PanSocket::open(*ctx, 9000,
                      [&](const dataplane::Address&, std::uint16_t,
                          const Bytes& data, SimTime) {
                        ++received;
                        received_bytes += data.size();
                      })
          .value();

  // Half the datagrams come from another host of the AS over the empty
  // path (BorderRouter::inject). The other half arrive from the wire as
  // one same-tick batch, each on a one-hop SCION path that ends here
  // (receive_batch → process). Equal sizes, so the warm-up grows every
  // circulating buffer to its size.
  dataplane::BorderRouter& router = *net.router(a::uva());
  const dataplane::FwdKey& key = net.fwd_key(a::uva());
  std::vector<dataplane::ScionPacket> injected;
  std::vector<Bytes> wire;
  for (std::size_t i = 0; i < kBatch; ++i) {
    dataplane::ScionPacket pkt;
    pkt.dst = host;
    dataplane::UdpDatagram datagram;
    datagram.src_port = static_cast<std::uint16_t>(40000 + i);
    datagram.dst_port = 9000;
    datagram.data.assign(200, static_cast<std::uint8_t>(i));
    pkt.payload = datagram.serialize();
    if (i % 2 == 0) {
      pkt.path_type = dataplane::PathType::kEmpty;
      pkt.src = {a::uva(), 0x0A000002};
      injected.push_back(pkt);
      continue;
    }
    pkt.src = {a::princeton(), 0x0A000003};
    dataplane::InfoField info;
    info.seg_id = static_cast<std::uint16_t>(0x4000 + i);
    info.timestamp = kUnixEpochAtSimZero + static_cast<std::uint32_t>(i);
    dataplane::HopField hop;  // no ingress to check, egress 0: deliver
    hop.exp_time = 255;
    hop.mac = dataplane::compute_hop_mac(key, info.seg_id, info.timestamp,
                                         hop);
    pkt.path.info = {info};
    pkt.path.seg_len = {1, 0, 0};
    pkt.path.hops = {hop};
    wire.push_back(pkt.serialize().value());
  }
  std::vector<simnet::MessagePtr> batch;
  batch.reserve(wire.size());
  const auto fire_batch = [&] {
    for (const dataplane::ScionPacket& pkt : injected) {
      ASSERT_TRUE(net.send_from_host(pkt).ok());
    }
    for (const Bytes& bytes : wire) {
      auto frame = dataplane::FramePool::global().acquire();
      frame->scion_bytes.assign(bytes.begin(), bytes.end());
      batch.push_back(std::move(frame));
    }
    router.receive_batch(batch, simnet::Arrival{nullptr, 1, net.sim().now()});
    batch.clear();
    net.sim().run_all();
  };
  for (std::size_t r = 0; r < kWarmupRounds; ++r) fire_batch();

  const std::uint64_t received_before = received;
  const std::uint64_t delivered_before = router.stats().delivered;
  const std::uint64_t allocs_before = g_allocs.load();
  for (std::size_t r = 0; r < kRounds; ++r) fire_batch();
  const std::uint64_t allocs = g_allocs.load() - allocs_before;

  EXPECT_EQ(allocs, 0u);
  const std::uint64_t sent = kRounds * kBatch;
  EXPECT_EQ(router.stats().delivered - delivered_before, sent);
  EXPECT_EQ(received - received_before, sent);
  EXPECT_EQ(received_bytes, (kWarmupRounds + kRounds) * kBatch * 200);
}

}  // namespace
}  // namespace sciera::endhost
