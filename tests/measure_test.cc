#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/stats.h"
#include "common/check.h"
#include "measure/campaign.h"
#include "topology/sciera_net.h"

namespace sciera::measure {
namespace {

namespace a = topology::ases;

struct SharedNets {
  controlplane::ScionNetwork net{topology::build_sciera()};
  bgp::BgpNetwork bgp{net.topology()};
};

SharedNets& nets() {
  static SharedNets shared;
  return shared;
}

// FNV-1a over a CSV export: one constant pins every byte of it.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

// One ping RTT from its own normal() draw: static propagation plus
// multiplicative log-normal jitter that grows with hop count. The
// per-sample referee the minimum routines are checked against.
Duration sample_rtt(Duration base, std::size_t hops, double jitter_sigma,
                    Rng& rng) {
  const double sigma = jitter_sigma * std::sqrt(static_cast<double>(
                                          std::max<std::size_t>(hops, 1)));
  return static_cast<Duration>(static_cast<double>(base) *
                               rng.lognormal_median(1.0, sigma));
}

TEST(Sampling, RttJitterIsMultiplicativeAndPositive) {
  Rng rng{5};
  const Duration base = 100 * kMillisecond;
  double sum = 0;
  Duration lo = INT64_MAX, hi = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const Duration sample = sample_rtt(base, 4, 0.02, rng);
    sum += to_ms(sample);
    lo = std::min(lo, sample);
    hi = std::max(hi, sample);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);       // median-centered
  EXPECT_GT(lo, 80 * kMillisecond);       // tight sigma
  EXPECT_LT(hi, 130 * kMillisecond);
  EXPECT_LT(lo, hi);
}

// The per-sample loop sample_min_rtt() replaces: each ping lost or one
// sample_rtt() draw, keeping the smallest.
std::optional<Duration> per_sample_min_rtt(Duration base, std::size_t hops,
                                           double sigma, int samples,
                                           double loss, Rng& rng) {
  std::optional<Duration> best;
  for (int s = 0; s < samples; ++s) {
    if (rng.chance(loss)) continue;
    const Duration sample = sample_rtt(base, hops, sigma, rng);
    if (!best || sample < *best) best = sample;
  }
  return best;
}

TEST(Sampling, MinRttMatchesPerSampleLoop) {
  // Same value from the same stream, and each stream left in the same
  // state: the next normal() checks the Box-Muller spare, the next
  // next_u64() the generator.
  Rng inputs{17};
  Rng fast{23};
  Rng slow{23};
  std::size_t calls = 0, all_lost = 0;
  for (int round = 0; round < 140; ++round) {
    const double sigma = round % 2 == 0 ? 0.02 : 0.5;
    for (int samples = 0; samples <= 8; ++samples) {
      for (const double loss : {0.0, 0.002, 0.5, 1.0}) {
        for (std::size_t hops = 0; hops <= 20; ++hops) {
          const auto base = static_cast<Duration>(
              inputs.uniform(0.5, 600.0) * static_cast<double>(kMillisecond));
          const auto expected =
              per_sample_min_rtt(base, hops, sigma, samples, loss, slow);
          const auto actual =
              sample_min_rtt(base, hops, sigma, samples, loss, fast);
          ASSERT_EQ(actual, expected)
              << "samples " << samples << " loss " << loss << " hops " << hops;
          ASSERT_EQ(fast.normal(), slow.normal());
          ASSERT_EQ(fast.next_u64(), slow.next_u64());
          all_lost += !actual.has_value();
          ++calls;
        }
      }
    }
  }
  EXPECT_EQ(calls, 105840u);
  EXPECT_GT(all_lost, 0u);
  EXPECT_LT(all_lost, calls);
}

// The loop MinRtt replaces: every draw evaluated by normal(), path by
// path, keeping the first path with the least RTT. No `loss` means
// probes: one draw per path and no loss draw.
struct EveryDraw {
  std::optional<MinRtt::Result> least;
  bool tied = false;  // a later path drew the least RTT too
};
EveryDraw every_draw_min(const std::vector<PingPath>& paths, int samples,
                         std::optional<double> loss, Rng& rng) {
  EveryDraw out;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    for (int s = 0; s < (loss ? samples : 1); ++s) {
      if (loss && rng.chance(*loss)) continue;
      const auto rtt = static_cast<Duration>(
          static_cast<double>(paths[p].base) *
          rng.lognormal_median(1.0, paths[p].sigma));
      if (out.least && rtt == out.least->rtt && p != out.least->path) {
        out.tied = true;
      }
      if (!out.least || rtt < out.least->rtt) {
        out.least = MinRtt::Result{rtt, p};
        out.tied = false;
      }
    }
  }
  return out;
}

TEST(Sampling, MinRttMatchesEveryDrawEvaluated) {
  // Same RTT and path from the same stream, and each stream left in the
  // same state. Bases: spread over 0.5-600 ms, all equal, 1 ns apart,
  // and all 1 ns. Equal bases at sigma 1e-9, and 1 ns bases, make draws
  // tie after truncation, so only the path order decides.
  Rng inputs{29};
  Rng fast{31};
  Rng slow{31};
  MinRtt pings;
  std::vector<PingPath> paths;
  std::size_t calls = 0, all_lost = 0, ties = 0, later_path = 0;
  const auto check = [&](int samples, std::optional<double> loss) {
    pings.clear();
    for (const PingPath& path : paths) {
      if (loss) {
        pings.ping(path, samples, *loss, fast);
      } else {
        pings.probe(path, fast);
      }
    }
    const auto actual = pings.least();
    const EveryDraw expected = every_draw_min(paths, samples, loss, slow);
    ASSERT_EQ(actual.has_value(), expected.least.has_value());
    if (actual) {
      ASSERT_EQ(actual->rtt, expected.least->rtt);
      ASSERT_EQ(actual->path, expected.least->path);
      later_path += actual->path > 0;
    }
    ASSERT_EQ(fast.normal(), slow.normal());
    ASSERT_EQ(fast.next_u64(), slow.next_u64());
    all_lost += !actual.has_value();
    ties += expected.tied;
    ++calls;
  };
  for (std::size_t n = 1; n <= 40; ++n) {
    for (const double sigma : {0.02, 0.5, 1e-9}) {
      for (int shape = 0; shape < 4; ++shape) {
        const auto ms = [&] {
          return static_cast<Duration>(inputs.uniform(0.5, 600.0) *
                                       static_cast<double>(kMillisecond));
        };
        const Duration first = ms();
        paths.clear();
        for (std::size_t p = 0; p < n; ++p) {
          const Duration base = shape == 0   ? ms()
                                : shape == 1 ? first
                                : shape == 2 ? first + static_cast<Duration>(p)
                                             : Duration{1};
          paths.push_back(ping_path(base, sigma));
        }
        for (const int samples : {0, 1, 2, 3, 4, 5, 6, 7, 8, 100}) {
          for (const double loss : {0.0, 0.002, 0.5, 1.0}) {
            ASSERT_NO_FATAL_FAILURE(check(samples, loss))
                << n << " paths, sigma " << sigma << ", bases " << shape
                << ", samples " << samples << ", loss " << loss;
          }
        }
        ASSERT_NO_FATAL_FAILURE(check(1, std::nullopt))
            << n << " probes, sigma " << sigma << ", bases " << shape;
      }
    }
  }
  EXPECT_EQ(calls, 19680u);
  EXPECT_GT(all_lost, 0u);
  EXPECT_GT(ties, 1000u);
  EXPECT_GT(later_path, 1000u);
}

TEST(Sampling, CosinePolynomialStaysWithinItsBound) {
  // Against normal()'s own expressions, on a dense grid of u and a few
  // ulps either side of every quadrant boundary (u = j/4) and every
  // point where the reduction rounds to the next quadrant (u = j/8).
  double worst = 0.0;
  std::size_t over = 0;
  const auto check = [&](double u) {
    if (u < 0.0 || u >= 1.0) return;
    const double cos_err =
        std::abs(detail::cos_2pi(u, false) - std::cos(2.0 * M_PI * u));
    const double sin_err =
        std::abs(detail::cos_2pi(u, true) - std::sin(2.0 * M_PI * u));
    worst = std::max({worst, cos_err, sin_err});
    over += cos_err >= detail::kSinCosBound;
    over += sin_err >= detail::kSinCosBound;
  };
  for (int i = 0; i < (1 << 20); ++i) check(i * 0x1p-20);
  for (int j = 0; j <= 8; ++j) {
    double below = j / 8.0;
    double above = j / 8.0;
    check(below);
    for (int step = 0; step < 4; ++step) {
      below = std::nextafter(below, -1.0);
      above = std::nextafter(above, 2.0);
      check(below);
      check(above);
    }
  }
  EXPECT_EQ(over, 0u) << "worst " << worst;
  // Tight, not loose: cos's Taylor error reaches 1.15e-10 at pi/4.
  EXPECT_GT(worst, 1.1e-10);
}

class CampaignFixture : public ::testing::Test {
 protected:
  static const CampaignResult& result() {
    static const CampaignResult r = [] {
      auto& s = nets();
      CampaignOptions options;
      options.duration = 20 * kDay;
      options.interval = kHour;  // coarse for tests; benches go finer
      options.samples_per_path = 4;
      Campaign campaign{s.net, s.bgp, options};
      return campaign.run();
    }();
    return r;
  }
};

TEST_F(CampaignFixture, ProducesRecordsForAllPairsAndIntervals) {
  const auto& r = result();
  EXPECT_FALSE(r.intervals.empty());
  // 11 sources x (targets - self) pairs per interval tick.
  std::set<std::pair<std::uint64_t, std::uint64_t>> pairs;
  for (const auto& record : r.intervals) {
    pairs.insert({record.src.packed(), record.dst.packed()});
  }
  EXPECT_GT(pairs.size(), 100u);
  for (const auto& record : r.intervals) {
    EXPECT_NE(record.src, record.dst);
  }
}

TEST_F(CampaignFixture, ScionAndIpMostlyReachable) {
  const auto& r = result();
  std::size_t scion_ok = 0, ip_ok = 0;
  for (const auto& record : r.intervals) {
    scion_ok += record.scion_min_rtt.has_value();
    ip_ok += record.ip_min_rtt.has_value();
  }
  EXPECT_GT(static_cast<double>(scion_ok), 0.95 * r.intervals.size());
  EXPECT_GT(static_cast<double>(ip_ok), 0.95 * r.intervals.size());
}

TEST_F(CampaignFixture, RttsAreGloballyPlausible) {
  const auto& r = result();
  for (const auto& record : r.intervals) {
    if (record.scion_min_rtt) {
      EXPECT_GT(to_ms(*record.scion_min_rtt), 0.5);
      EXPECT_LT(to_ms(*record.scion_min_rtt), 1500.0);
    }
    if (record.ip_min_rtt) {
      EXPECT_LT(to_ms(*record.ip_min_rtt), 1500.0);
    }
  }
}

TEST_F(CampaignFixture, MedianScionBeatsIp) {
  // The headline Figure 5 result: SCION's median min-RTT is lower, and the
  // tail improvement is larger than the median improvement.
  const auto dist = analysis::rtt_distributions(result());
  EXPECT_LT(dist.scion_ms.median(), dist.ip_ms.median());
  const double median_gain = 1.0 - dist.scion_ms.median() / dist.ip_ms.median();
  const double p90_gain =
      1.0 - dist.scion_ms.percentile(0.9) / dist.ip_ms.percentile(0.9);
  EXPECT_GT(median_gain, 0.0);
  EXPECT_GT(p90_gain, median_gain);
}

TEST_F(CampaignFixture, UfmsEquinixIsAnOutlier) {
  // The SCION-only missing RNP<->BRIDGES VLAN forces SCION through GEANT
  // while IP goes direct: that pair's ratio must sit far above the median.
  const auto ratios = analysis::pair_ratios(result());
  ASSERT_FALSE(ratios.empty());
  double ufms_equinix = 0;
  std::vector<double> all;
  for (const auto& ratio : ratios) {
    all.push_back(ratio.ratio);
    if (ratio.src == a::ufms() && ratio.dst == a::equinix()) {
      ufms_equinix = ratio.ratio;
    }
  }
  ASSERT_GT(ufms_equinix, 0);
  const analysis::Cdf cdf{all};
  // One of the Figure 6 outlier sets: well above the bulk of the pairs.
  EXPECT_GT(ufms_equinix, cdf.percentile(0.75));
  EXPECT_GT(ufms_equinix, 1.1);
}

TEST_F(CampaignFixture, PathCountsDropDuringKreonetOutage) {
  const auto& r = result();
  // Daejeon <-> Singapore: the dj-hk outage (days 10..16.5) removes the
  // short ring direction; active path count must dip in that window.
  std::uint32_t before_max = 0, during_min = UINT32_MAX;
  for (const auto& record : r.intervals) {
    if (!(record.src == a::kisti_dj() && record.dst == a::kisti_sg())) continue;
    const double day = static_cast<double>(record.start) / kDay;
    if (day < 8.0) before_max = std::max(before_max, record.active_paths);
    if (day > 10.5 && day < 16.0) {
      during_min = std::min(during_min, record.active_paths);
    }
  }
  ASSERT_NE(during_min, UINT32_MAX);
  EXPECT_LT(during_min, before_max);
}

TEST_F(CampaignFixture, CsvExportsParse) {
  const auto& r = result();
  const std::string intervals = r.intervals_csv();
  const std::string probes = r.probes_csv();
  EXPECT_NE(intervals.find("scion_min_rtt_ms"), std::string::npos);
  EXPECT_NE(probes.find("active_paths"), std::string::npos);
  // Row counts match (+1 header, +1 trailing newline split artifact).
  const auto count_lines = [](const std::string& text) {
    return static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
  };
  EXPECT_EQ(count_lines(intervals), r.intervals.size() + 1);
  EXPECT_EQ(count_lines(probes), r.intervals.size() + 1);
}

TEST_F(CampaignFixture, FullScheduleDigests) {
  // Every byte of the fixture's 20-day run. It is the one pin that reaches
  // the day 8.5-18.8 KREONET outage, which takes IP down too and so
  // reconverges BGP.
  const auto& r = result();
  EXPECT_EQ(r.intervals.size(), 142560u);
  EXPECT_EQ(fnv1a(r.intervals_csv()), 0x14628deac1375836ULL);
  EXPECT_EQ(fnv1a(r.probes_csv()), 0x17a66f6daa462afcULL);
}

TEST_F(CampaignFixture, LinkStateRestoredAfterRun) {
  auto& s = nets();
  // The campaign must leave the shared networks clean.
  for (const auto& link : s.net.topology().links()) {
    EXPECT_TRUE(s.net.link(link.id)->is_up()) << link.label;
    EXPECT_TRUE(s.bgp.link_up(link.id)) << link.label;
  }
}

TEST(CampaignIncidents, PaperScheduleIsWellFormed) {
  const auto incidents = Campaign::paper_incidents();
  EXPECT_GE(incidents.size(), 10u);
  const topology::Topology topo = topology::build_sciera();
  for (const auto& incident : incidents) {
    EXPECT_LT(incident.from, incident.to) << incident.label;
    for (const auto& label : incident.links) {
      EXPECT_NE(topo.find_link_by_label(label), nullptr)
          << incident.label << " references unknown link " << label;
    }
  }
}


TEST(CampaignIncidents, OverlappingOutagesHoldLinkDown) {
  // Two SCION outages of KREONET's Daejeon-Hong Kong link, [1 h, 5 h) and
  // [3 h, 8 h): the link stays down until the later one ends.
  using Scope = Incident::Scope;
  auto& s = nets();
  CampaignOptions options;
  options.duration = 10 * kHour;
  options.interval = kHour;
  Campaign campaign{s.net, s.bgp, options};
  campaign.set_sources({a::kisti_dj()});
  campaign.set_targets({a::kisti_sg()});
  campaign.set_incidents(
      {{"first", {"kreonet-dj-hk"}, kHour, 5 * kHour, Scope::kScionOnly},
       {"second", {"kreonet-dj-hk"}, 3 * kHour, 8 * kHour, Scope::kScionOnly}});
  const auto result = campaign.run();
  ASSERT_EQ(result.intervals.size(), 10u);
  for (const auto& record : result.intervals) {
    const bool held = record.start >= kHour && record.start < 8 * kHour;
    EXPECT_EQ(record.active_paths, held ? 22u : 23u)
        << "hour " << record.start / kHour;
  }
}

TEST(CampaignIncidents, ScionOnlyOutageInsidePhysicalOutageChangesNothing) {
  // A SCION-only incident inside a physical outage of the same link, ending
  // with it, must leave IP down as well as SCION: every record equals the
  // physical outage's alone.
  using Scope = Incident::Scope;
  auto& s = nets();
  const auto run = [&](std::vector<Incident> incidents) {
    CampaignOptions options;
    options.duration = 10 * kHour;
    options.interval = kHour;
    Campaign campaign{s.net, s.bgp, options};
    campaign.set_sources({a::kisti_dj()});
    campaign.set_incidents(std::move(incidents));
    return campaign.run().intervals_csv();
  };
  const Incident cut{"cut", {"kreonet-dj-hk"}, kHour, 8 * kHour, Scope::kBoth};
  const Incident vlan{"vlan", {"kreonet-dj-hk"}, 3 * kHour, 8 * kHour,
                      Scope::kScionOnly};
  EXPECT_EQ(run({cut, vlan}), run({cut}));
  EXPECT_EQ(run({vlan, cut}), run({cut}));
}

// Restores the process-default abort mode even when a test fails early.
class CountModeGuard {
 public:
  CountModeGuard() {
    CheckRegistry::instance().set_fail_mode(CheckFailMode::kCount);
  }
  ~CountModeGuard() {
    CheckRegistry::instance().set_fail_mode(CheckFailMode::kAbort);
  }
};

// An incident link the topology does not know used to be skipped without
// a word, so that incident never happened. It fails a check now; in count
// mode the label is left out and the incident's other link still fails.
TEST(CampaignValidation, UnknownIncidentLinkFailsCheck) {
  using Scope = Incident::Scope;
  const CountModeGuard guard;
  auto& checks = CheckRegistry::instance();
  const auto before = checks.count("measure.campaign_unknown_link");
  auto& s = nets();
  CampaignOptions options;
  options.duration = 4 * kHour;
  options.interval = kHour;
  Campaign campaign{s.net, s.bgp, options};
  campaign.set_sources({a::kisti_dj()});
  campaign.set_targets({a::kisti_sg()});
  campaign.set_incidents({{"typo", {"kreonet-dj-hkk", "kreonet-dj-hk"}, kHour,
                           3 * kHour, Scope::kScionOnly}});
  const auto result = campaign.run();
  EXPECT_EQ(checks.count("measure.campaign_unknown_link"), before + 1);
  ASSERT_EQ(result.intervals.size(), 4u);
  for (const auto& record : result.intervals) {
    const bool down = record.start >= kHour && record.start < 3 * kHour;
    EXPECT_EQ(record.active_paths, down ? 22u : 23u)
        << "hour " << record.start / kHour;
  }
}

// A source or target outside the topology used to reach a null AsInfo.
// It fails a check now; in count mode it is left out, and the known pair
// runs alone.
TEST(CampaignValidation, UnknownSourceOrTargetFailsCheck) {
  const CountModeGuard guard;
  auto& checks = CheckRegistry::instance();
  const auto before = checks.count("measure.campaign_unknown_as");
  const IsdAs ghost = IsdAs::parse("99-999").value();
  auto& s = nets();
  CampaignOptions options;
  options.duration = 2 * kHour;
  options.interval = kHour;
  Campaign campaign{s.net, s.bgp, options};
  campaign.set_incidents({});
  campaign.set_sources({a::kisti_dj(), ghost});
  campaign.set_targets({ghost, a::kisti_sg()});
  const auto result = campaign.run();
  EXPECT_EQ(checks.count("measure.campaign_unknown_as"), before + 2);
  ASSERT_EQ(result.pair_paths.size(), 1u);
  EXPECT_EQ(result.pair_paths[0].src, a::kisti_dj());
  EXPECT_EQ(result.pair_paths[0].dst, a::kisti_sg());
  EXPECT_EQ(result.intervals.size(), 2u);
}

// A non-positive interval never advanced the tick loop, so run() never
// returned. It fails a check now; in count mode the result is empty and
// the shared networks are left as they were.
TEST(CampaignValidation, NonPositiveIntervalFailsCheck) {
  const CountModeGuard guard;
  auto& checks = CheckRegistry::instance();
  const auto before = checks.count("measure.campaign_bad_interval");
  auto& s = nets();
  for (const Duration interval : {Duration{0}, -kHour}) {
    CampaignOptions options;
    options.duration = 4 * kHour;
    options.interval = interval;
    Campaign campaign{s.net, s.bgp, options};
    campaign.set_sources({a::kisti_dj()});
    campaign.set_targets({a::kisti_sg()});
    const auto result = campaign.run();
    EXPECT_TRUE(result.intervals.empty());
    EXPECT_TRUE(result.pair_paths.empty());
  }
  EXPECT_EQ(checks.count("measure.campaign_bad_interval"), before + 2);
  for (const auto& link : s.net.topology().links()) {
    EXPECT_TRUE(s.net.link(link.id)->is_up()) << link.label;
    EXPECT_TRUE(s.bgp.link_up(link.id)) << link.label;
  }
}

// An interval within one step of the time limit stepped the tick past it:
// SimTime overflowed (a signed-overflow report under UBSan) and run()
// never returned. Ticks are counted by division now.
TEST(CampaignValidation, IntervalNearTheTimeLimitEndsTheRun) {
  auto& s = nets();
  CampaignOptions options;
  options.duration = INT64_MAX;
  options.interval = (Duration{1} << 62) + 1;
  Campaign campaign{s.net, s.bgp, options};
  campaign.set_sources({a::kisti_dj()});
  campaign.set_targets({a::kisti_sg()});
  campaign.set_incidents({});
  const auto result = campaign.run();
  ASSERT_EQ(result.intervals.size(), 2u);
  EXPECT_EQ(result.intervals[0].start, 0);
  EXPECT_EQ(result.intervals[1].start, options.interval);
}

TEST(CampaignDeterminism, SameSeedSameResult) {
  auto& s = nets();
  CampaignOptions options;
  options.duration = 2 * kDay;
  options.interval = kHour;
  Campaign first{s.net, s.bgp, options};
  const auto a1 = first.run();
  Campaign second{s.net, s.bgp, options};
  const auto a2 = second.run();
  ASSERT_EQ(a1.intervals.size(), a2.intervals.size());
  for (std::size_t i = 0; i < a1.intervals.size(); ++i) {
    EXPECT_EQ(a1.intervals[i].scion_min_rtt, a2.intervals[i].scion_min_rtt);
    EXPECT_EQ(a1.intervals[i].ip_min_rtt, a2.intervals[i].ip_min_rtt);
  }
  EXPECT_EQ(a1.probes_csv(), a2.probes_csv());
}

// Golden digests of a 2-day campaign with every other option at its
// default (10-minute intervals): the RTT sampler, the path reselection
// the campaign runs and the incident schedule all reach these records.
TEST(CampaignDeterminism, DefaultCampaignDigests) {
  controlplane::ScionNetwork net{topology::build_sciera()};
  bgp::BgpNetwork bgp{net.topology()};
  CampaignOptions options;
  options.duration = 2 * kDay;
  Campaign campaign{net, bgp, options};
  const auto result = campaign.run();
  EXPECT_EQ(result.intervals.size(), 85536u);
  EXPECT_EQ(fnv1a(result.intervals_csv()), 0x4c4a3ce3ad1bfb28ULL);
  EXPECT_EQ(fnv1a(result.probes_csv()), 0x9c9a4e517b92ddc0ULL);
}

// SCIERA plus 22 stub customers of GEANT, each on one 1 ms link: 65 links,
// so the last LinkId does not fit in one 64-bit word. That link is down
// for SCION from 6 h to 12 h on top of the paper's schedule.
TEST(CampaignDeterminism, WideTopologyDigests) {
  topology::Topology topo = topology::build_sciera();
  const topology::AsInfo geant = *topo.find_as(a::geant());
  for (std::uint64_t k = 0; k < 22; ++k) {
    topology::AsInfo stub;
    stub.ia = IsdAs{71, As{64000 + k}};
    stub.name = "stub-" + std::to_string(k);
    stub.city = geant.city;
    stub.location = geant.location;
    ASSERT_TRUE(topo.add_as(stub).ok());
    ASSERT_TRUE(topo.add_link("geant-stub-" + std::to_string(k), geant.ia,
                              stub.ia, topology::LinkType::kParentChild,
                              kMillisecond)
                    .ok());
  }
  ASSERT_EQ(topo.links().size(), 65u);
  const IsdAs last_stub = topo.links().back().b;
  controlplane::ScionNetwork net{std::move(topo)};
  bgp::BgpNetwork bgp{net.topology()};
  CampaignOptions options;
  options.duration = kDay;
  options.interval = kHour;
  Campaign campaign{net, bgp, options};
  auto incidents = Campaign::paper_incidents();
  incidents.push_back({"stub-21-down", {"geant-stub-21"}, 6 * kHour,
                       12 * kHour, Incident::Scope::kScionOnly});
  campaign.set_incidents(std::move(incidents));
  const auto result = campaign.run();
  EXPECT_EQ(result.intervals.size(), 12936u);
  for (const auto& record : result.intervals) {
    if (record.dst != last_stub) continue;
    const bool down = record.start >= 6 * kHour && record.start < 12 * kHour;
    EXPECT_EQ(record.active_paths == 0, down)
        << record.src.to_string() << " hour " << record.start / kHour;
  }
  EXPECT_EQ(fnv1a(result.intervals_csv()), 0x8a6079de7bccef1cULL);
  EXPECT_EQ(fnv1a(result.probes_csv()), 0xa25f212772506be5ULL);
}

TEST(CampaignDeterminism, DifferentSeedDifferentSamples) {
  auto& s = nets();
  CampaignOptions options;
  options.duration = kDay;
  options.interval = kHour;
  Campaign first{s.net, s.bgp, options};
  const auto a1 = first.run();
  options.seed = 999;
  Campaign second{s.net, s.bgp, options};
  const auto a2 = second.run();
  ASSERT_EQ(a1.intervals.size(), a2.intervals.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a1.intervals.size(); ++i) {
    any_diff |= a1.intervals[i].scion_min_rtt != a2.intervals[i].scion_min_rtt;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace sciera::measure
