// Ablation: the dispatcher bottleneck of Section 4.8 and the Science-DMZ
// datapath (Section 4.7.1). Quantifies why SCIERA migrated to a
// dispatcherless end-host stack, why Hercules reached for XDP, and what
// RSS buys LightningFilter. Also the end host's two per-packet costs: a
// warm PAN send and a warm local delivery.
#include <benchmark/benchmark.h>

#include "endhost/hercules.h"
#include "endhost/lightning_filter.h"
#include "endhost/pan.h"
#include "topology/sciera_net.h"

namespace {

using namespace sciera;
using namespace sciera::endhost;

controlplane::ScionNetwork& net() {
  static controlplane::ScionNetwork network{topology::build_sciera()};
  return network;
}

dataplane::ScionPacket local_packet(const dataplane::Address& dst,
                                    std::uint16_t port) {
  dataplane::ScionPacket pkt;
  pkt.path_type = dataplane::PathType::kEmpty;
  pkt.dst = dst;
  pkt.src = {dst.ia, dst.host + 1};
  dataplane::UdpDatagram dg;
  dg.dst_port = port;
  dg.data = bytes_of("x");
  pkt.payload = dg.serialize();
  return pkt;
}

// Packets-per-burst delivered through the host stack, dispatcher vs
// dispatcherless, at a burst size that saturates the single dispatcher.
void BM_HostStackBurst(benchmark::State& state) {
  const bool dispatcher = state.range(0) == 1;
  const auto burst = static_cast<int>(state.range(1));
  namespace a = topology::ases;
  HostStack::Config cfg;
  cfg.mode = dispatcher ? HostMode::kDispatcher : HostMode::kDispatcherless;
  cfg.dispatcher_pps = 250'000;
  std::uint64_t delivered_total = 0;
  std::uint64_t dropped_total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    HostStack stack{net(), {a::uva(), 0x0B000001}, cfg};
    int received = 0;
    (void)stack.bind(6000, [&](auto&&...) { ++received; });
    const auto pkt = local_packet({a::uva(), 0x0B000001}, 6000);
    state.ResumeTiming();
    for (int i = 0; i < burst; ++i) (void)net().send_from_host(pkt);
    net().sim().run_for(kSecond);
    delivered_total += stack.metrics().delivered->value();
    dropped_total += stack.metrics().dropped_overload->value();
  }
  state.counters["delivered/burst"] =
      static_cast<double>(delivered_total) / state.iterations();
  state.counters["dropped/burst"] =
      static_cast<double>(dropped_total) / state.iterations();
  state.SetLabel(dispatcher ? "dispatcher" : "dispatcherless");
}
BENCHMARK(BM_HostStackBurst)
    ->Args({1, 2000})
    ->Args({0, 2000})
    ->Unit(benchmark::kMillisecond);

// A daemon-mode PAN socket at UVa, on its own host address.
struct UvaSocket {
  UvaSocket(std::uint32_t host, std::uint16_t port,
            PanSocket::Handler handler)
      : daemon(net(), topology::ases::uva()),
        ctx(PanContext::Builder{}
                .net(net())
                .address({topology::ases::uva(), host})
                .daemon(daemon)
                .build(Rng{1})
                .value()),
        socket(PanSocket::open(*ctx, port, std::move(handler)).value()) {}

  Daemon daemon;
  std::unique_ptr<PanContext> ctx;
  std::unique_ptr<PanSocket> socket;
};

// One warm send_to of a 64-byte datagram from UVa: path choice over the
// destination's ranked set, UDP framing, and the router's first hop.
// Arg: the destination's path count, 3 (Princeton) or 96 (Korea
// University). The simulator is drained, untimed, every 256 sends.
void BM_PanSendWarm(benchmark::State& state) {
  namespace a = topology::ases;
  const IsdAs dst = state.range(0) == 3 ? a::princeton() : a::korea_univ();
  UvaSocket uva{0x0B000010, 0, [](auto&&...) {}};
  const dataplane::Address peer{dst, 0x0B000011};
  const Bytes payload(64, 0x5A);
  if (!uva.socket->send_to(peer, 7000, payload).ok() ||
      uva.daemon.path_set(dst)->size() !=
          static_cast<std::size_t>(state.range(0))) {
    state.SkipWithError("unexpected path set");
    return;
  }
  net().sim().run_all();
  std::size_t sent = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(uva.socket->send_to(peer, 7000, payload));
    if (++sent % 256 == 0) {
      state.PauseTiming();
      net().sim().run_all();
      state.ResumeTiming();
    }
  }
  net().sim().run_all();
}
BENCHMARK(BM_PanSendWarm)->Arg(3)->Arg(96);

// One warm local delivery of a 200-byte datagram from another host of the
// AS over the empty path: BorderRouter::inject, the intra-AS hop, the
// host stack and a PAN socket's handler, with the simulator run to empty.
void BM_LocalDeliveryWarm(benchmark::State& state) {
  namespace a = topology::ases;
  std::int64_t received = 0;
  UvaSocket uva{0x0B000020, 9000, [&received](auto&&...) { ++received; }};
  dataplane::ScionPacket pkt;
  pkt.path_type = dataplane::PathType::kEmpty;
  pkt.dst = {a::uva(), 0x0B000020};
  pkt.src = {a::uva(), 0x0B000021};
  dataplane::UdpDatagram dg;
  dg.src_port = 40000;
  dg.dst_port = 9000;
  dg.data.assign(200, 0x42);
  pkt.payload = dg.serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net().send_from_host(pkt));
    net().sim().run_all();
  }
  if (received != static_cast<std::int64_t>(state.iterations())) {
    state.SkipWithError("a datagram was not delivered");
  }
}
BENCHMARK(BM_LocalDeliveryWarm);

// Hercules receive-throughput model across datapath generations.
void BM_HerculesHostLimit(benchmark::State& state) {
  HerculesConfig cfg;
  switch (state.range(0)) {
    case 0:
      cfg.receiver_mode = HostMode::kDispatcher;
      cfg.use_xdp = false;
      break;
    case 1:
      cfg.receiver_mode = HostMode::kDispatcherless;
      cfg.use_xdp = false;
      break;
    default:
      cfg.use_xdp = true;
      break;
  }
  const Hercules hercules{net().topology(), cfg};
  double gbps = 0;
  for (auto _ : state) {
    gbps = hercules.host_limit_bps() / 1e9;
    benchmark::DoNotOptimize(gbps);
  }
  state.counters["host_limit_gbps"] = gbps;
  state.SetLabel(state.range(0) == 0   ? "dispatcher"
                 : state.range(0) == 1 ? "dispatcherless"
                                       : "xdp");
}
BENCHMARK(BM_HerculesHostLimit)->Arg(0)->Arg(1)->Arg(2);

// Multipath transfer planning over the KREONET ring (progressive filling).
void BM_HerculesPlan(benchmark::State& state) {
  namespace a = topology::ases;
  const auto paths = net().paths(a::kisti_dj(), a::kisti_ams());
  const std::size_t use =
      std::min(paths.size(), static_cast<std::size_t>(state.range(0)));
  std::vector<controlplane::Path> chosen(paths.begin(),
                                         paths.begin() + static_cast<long>(use));
  HerculesConfig cfg;
  cfg.use_xdp = true;
  const Hercules hercules{net().topology(), cfg};
  double gbps = 0;
  for (auto _ : state) {
    const auto report = hercules.plan(chosen, 100'000'000'000ULL);
    gbps = report.aggregate_bps / 1e9;
    benchmark::DoNotOptimize(report);
  }
  state.counters["aggregate_gbps"] = gbps;
}
BENCHMARK(BM_HerculesPlan)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// LightningFilter per-packet check (one CMAC + rules).
void BM_LightningFilterCheck(benchmark::State& state) {
  LightningFilter filter{bytes_of("dmz-secret")};
  namespace a = topology::ases;
  dataplane::ScionPacket pkt;
  pkt.src = {a::kisti_dj(), 1};
  Bytes payload(static_cast<std::size_t>(state.range(0)), 0x42);
  const Bytes tag = filter.make_authenticator(pkt.src.ia, payload);
  pkt.payload = payload;
  pkt.payload.insert(pkt.payload.end(), tag.begin(), tag.end());
  SimTime now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.check(pkt, now));
    now += kMicrosecond;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LightningFilterCheck)->Arg(200)->Arg(1500);

void BM_LightningFilterLineRate(benchmark::State& state) {
  const LightningFilter filter{bytes_of("s")};
  const bool rss = state.range(0) == 1;
  double gbps = 0;
  for (auto _ : state) {
    gbps = filter.throughput_bps(1500, rss) / 1e9;
    benchmark::DoNotOptimize(gbps);
  }
  state.counters["gbps"] = gbps;
  state.SetLabel(rss ? "rss-8-cores" : "single-queue");
}
BENCHMARK(BM_LightningFilterLineRate)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
