// Data-plane microbenchmarks: the per-packet work a border router does —
// hop-field MAC computation/verification (the fast path), full header
// serialization/parsing, and end-to-end per-hop processing. Also the raw
// crypto primitives underneath.
#include <benchmark/benchmark.h>

#include "controlplane/control_plane.h"
#include "crypto/cmac.h"
#include "crypto/sha256.h"
#include "topology/sciera_net.h"

namespace {

using namespace sciera;

dataplane::FwdKey bench_key() {
  return dataplane::derive_fwd_key(bytes_of("bench-master-secret"));
}

void BM_HopMacCompute(benchmark::State& state) {
  const auto key = bench_key();
  dataplane::HopField hop;
  hop.cons_ingress = 3;
  hop.cons_egress = 7;
  std::uint16_t beta = 0x1234;
  for (auto _ : state) {
    auto mac = dataplane::compute_hop_mac(key, beta, 1700000000, hop);
    benchmark::DoNotOptimize(mac);
    beta = dataplane::chain_beta(beta, mac);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HopMacCompute);

void BM_HopMacVerify(benchmark::State& state) {
  const auto key = bench_key();
  dataplane::HopField hop;
  hop.cons_ingress = 3;
  hop.cons_egress = 7;
  hop.mac = dataplane::compute_hop_mac(key, 0x1234, 1700000000, hop);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dataplane::verify_hop_mac(key, 0x1234, 1700000000, hop));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HopMacVerify);

dataplane::ScionPacket make_packet(std::size_t hops, std::size_t payload) {
  dataplane::ScionPacket pkt;
  pkt.dst = {IsdAs::parse("71-2:0:5c").value(), 1};
  pkt.src = {IsdAs::parse("71-225").value(), 2};
  pkt.path.info.push_back({true, false, 1, 1700000000});
  pkt.path.seg_len[0] = static_cast<std::uint8_t>(hops);
  for (std::size_t i = 0; i < hops; ++i) {
    dataplane::HopField hop;
    hop.cons_ingress = static_cast<IfaceId>(i);
    hop.cons_egress = static_cast<IfaceId>(i + 1);
    pkt.path.hops.push_back(hop);
  }
  pkt.payload.assign(payload, 0xAB);
  return pkt;
}

void BM_PacketSerialize(benchmark::State& state) {
  const auto pkt = make_packet(static_cast<std::size_t>(state.range(0)), 1200);
  for (auto _ : state) {
    auto bytes = pkt.serialize();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pkt.wire_size()));
}
BENCHMARK(BM_PacketSerialize)->Arg(3)->Arg(8)->Arg(16);

void BM_PacketParse(benchmark::State& state) {
  const auto bytes =
      make_packet(static_cast<std::size_t>(state.range(0)), 1200)
          .serialize()
          .value();
  for (auto _ : state) {
    auto pkt = dataplane::ScionPacket::parse(bytes);
    benchmark::DoNotOptimize(pkt);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_PacketParse)->Arg(3)->Arg(8)->Arg(16);

// Full end-to-end echo over the real SCIERA data plane: cost of one ping
// through every router on a transatlantic path (control-plane excluded).
void BM_EndToEndEcho(benchmark::State& state) {
  static controlplane::ScionNetwork net{topology::build_sciera()};
  namespace a = topology::ases;
  static const auto paths = net.paths(a::uva(), a::ovgu());
  const auto& path = paths.front();
  int received = 0;
  const dataplane::Address host{a::uva(), 77};
  (void)net.register_host(host, [&](const dataplane::ScionPacket&, SimTime) {
    ++received;
  });
  std::uint16_t seq = 0;
  for (auto _ : state) {
    dataplane::ScionPacket pkt;
    pkt.src = host;
    pkt.dst = {a::ovgu(), 1};
    pkt.next_hdr = dataplane::kProtoScmp;
    pkt.path = path.dataplane_path;
    pkt.payload = dataplane::make_echo_request(1, seq++).serialize();
    (void)net.send_from_host(pkt);
    net.sim().run_for(kSecond);
  }
  net.unregister_host(host);
  state.SetItemsProcessed(state.iterations());
  state.counters["replies"] = received;
}
BENCHMARK(BM_EndToEndEcho)->Unit(benchmark::kMicrosecond);

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

// One AES-CMAC over a message of state.range(0) bytes: the LightningFilter
// check at host ingress is one of these per packet. On a CPU with AES-NI
// this runs the hardware rounds.
void BM_AesCmac(benchmark::State& state) {
  const crypto::AesCmac cmac{bench_key()};
  const Bytes message(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cmac.compute(message));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesCmac)->Arg(16)->Arg(256)->Arg(1500);

}  // namespace

BENCHMARK_MAIN();
