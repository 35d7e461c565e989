// Control-plane microbenchmarks: beaconing sweeps, path combination as the
// option space grows toward the >100-path pairs of Figure 8, PCB
// verification, the Ed25519 sign and verify calls under both, and
// path-server lookups (cold vs cached) — the ablations behind the DESIGN.md
// design-choice list.
#include <benchmark/benchmark.h>

#include "controlplane/control_plane.h"
#include "crypto/ed25519.h"
#include "topology/sciera_net.h"

namespace {

using namespace sciera;
using namespace sciera::controlplane;

ScionNetwork& net() {
  static ScionNetwork network{topology::build_sciera()};
  return network;
}

void BM_BeaconingSweep(benchmark::State& state) {
  auto& network = net();
  std::uint64_t signatures = 0;
  for (auto _ : state) {
    const std::uint64_t before = crypto::Ed25519::signatures_made();
    network.run_beaconing();
    signatures = crypto::Ed25519::signatures_made() - before;
  }
  state.counters["segments"] = static_cast<double>(network.segments().size());
  state.counters["signatures"] = static_cast<double>(signatures);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(network.segments().size()));
}
BENCHMARK(BM_BeaconingSweep)->Unit(benchmark::kMillisecond);

void BM_PathCombination(benchmark::State& state) {
  namespace a = topology::ases;
  struct Case {
    IsdAs src, dst;
  };
  const Case cases[] = {
      {a::sec(), a::nus()},        // trivial: peering pair
      {a::uva(), a::princeton()},  // small
      {a::kisti_dj(), a::kisti_sg()},  // ring diversity
      {a::uva(), a::ufms()},       // the >100-path pair
  };
  const Case chosen = cases[state.range(0)];
  std::size_t n_paths = 0;
  for (auto _ : state) {
    const auto paths = net().paths(chosen.src, chosen.dst);
    n_paths = paths.size();
    benchmark::DoNotOptimize(paths);
  }
  state.counters["paths"] = static_cast<double>(n_paths);
  state.SetLabel(chosen.src.to_string() + "->" + chosen.dst.to_string());
}
BENCHMARK(BM_PathCombination)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_PcbVerification(benchmark::State& state) {
  auto& network = net();
  auto* pki71 = network.pki(71);
  auto* pki64 = network.pki(64);
  const KeyLookup keys = [&](IsdAs as) -> const crypto::Ed25519::PublicKey* {
    auto* pki = as.isd() == 71 ? pki71 : pki64;
    const auto* creds = pki->credentials(as);
    return creds == nullptr ? nullptr : &creds->as_cert.subject_key;
  };
  // Pick a long segment.
  const PathSegment* longest = nullptr;
  for (const auto& segment : network.segments().all()) {
    if (longest == nullptr || segment.pcb.length() > longest->pcb.length()) {
      longest = &segment;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_pcb(longest->pcb, keys).ok());
  }
  state.counters["entries"] = static_cast<double>(longest->pcb.length());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(longest->pcb.length()));
}
BENCHMARK(BM_PcbVerification)->Unit(benchmark::kMicrosecond);

// One Ed25519 call on a 200-byte message. Deriving the key builds the
// fixed-base table, so neither loop pays for it.
crypto::KeyPair ed25519_key() {
  crypto::Ed25519::Seed seed{};
  for (std::size_t i = 0; i < seed.size(); ++i) {
    seed[i] = static_cast<std::uint8_t>(7 * i + 1);
  }
  return crypto::KeyPair::from_seed(seed);
}

void BM_Ed25519Sign(benchmark::State& state) {
  const auto key = ed25519_key();
  const Bytes message(200, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Ed25519::sign(key, message));
  }
}
BENCHMARK(BM_Ed25519Sign)->Unit(benchmark::kMicrosecond);

void BM_Ed25519Verify(benchmark::State& state) {
  const auto key = ed25519_key();
  const Bytes message(200, 0xA5);
  const auto signature = crypto::Ed25519::sign(key, message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::Ed25519::verify(key.pub(), message, signature));
  }
}
BENCHMARK(BM_Ed25519Verify)->Unit(benchmark::kMicrosecond);

void BM_PathLookupCold(benchmark::State& state) {
  namespace a = topology::ases;
  auto* cs = net().control_service_set(a::sidn())->primary();
  for (auto _ : state) {
    cs->flush_cache();
    benchmark::DoNotOptimize(cs->lookup_paths_now(a::ufms()));
  }
}
BENCHMARK(BM_PathLookupCold)->Unit(benchmark::kMillisecond);

void BM_PathLookupCached(benchmark::State& state) {
  namespace a = topology::ases;
  auto* cs = net().control_service_set(a::sidn())->primary();
  benchmark::DoNotOptimize(cs->lookup_paths_now(a::ufms()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs->lookup_paths_now(a::ufms()));
  }
}
BENCHMARK(BM_PathLookupCached);

void BM_CertificateRenewalSweep(benchmark::State& state) {
  auto& network = net();
  SimTime fake_now = 0;
  for (auto _ : state) {
    // Advance far enough that every short-lived cert wants renewal.
    fake_now += 3 * kDay;
    auto* pki = network.pki(71);
    benchmark::DoNotOptimize(pki->renew_expiring(fake_now));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              network.topology().core_ases(71).size()));
}
BENCHMARK(BM_CertificateRenewalSweep)->Unit(benchmark::kMillisecond);


// Ablation: beacon-selection policy — how many core segments to keep per
// (origin, terminus) pair. More candidates -> richer Figure-8 matrices but
// heavier control plane; the sweep shows the path-diversity/work tradeoff.
void BM_BeaconingKBest(benchmark::State& state) {
  auto& network = net();
  BeaconingOptions options;
  options.max_core_segments_per_pair = static_cast<std::size_t>(state.range(0));
  std::size_t segments = 0, paths = 0;
  namespace a = topology::ases;
  for (auto _ : state) {
    const auto store = network.beacon_with(options);
    segments = store.size();
    Combinator combinator{network.topology(), store};
    paths = combinator.combine(a::uva(), a::ufms()).size();
    benchmark::DoNotOptimize(store);
  }
  state.counters["segments"] = static_cast<double>(segments);
  state.counters["uva_ufms_paths"] = static_cast<double>(paths);
}
BENCHMARK(BM_BeaconingKBest)->Arg(4)->Arg(12)->Arg(24)->Arg(48)
    ->Unit(benchmark::kMillisecond);

// Ablation: beaconing depth cap (how far core beacons may travel).
void BM_BeaconingPathLengthCap(benchmark::State& state) {
  auto& network = net();
  BeaconingOptions options;
  options.max_core_path_length = static_cast<std::size_t>(state.range(0));
  std::size_t segments = 0;
  for (auto _ : state) {
    const auto store = network.beacon_with(options);
    segments = store.size();
    benchmark::DoNotOptimize(store);
  }
  state.counters["segments"] = static_cast<double>(segments);
}
BENCHMARK(BM_BeaconingPathLengthCap)->Arg(3)->Arg(5)->Arg(7)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
