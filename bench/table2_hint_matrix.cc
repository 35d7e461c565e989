// Table 2 (Appendix A): preferred hinting mechanisms vs the technologies
// present in the target network.
#include "bench_common.h"
#include "endhost/hints.h"

using namespace sciera;
using namespace sciera::endhost;

int main() {
  bench::print_header(
      "Table 2 — hinting mechanisms vs existing network technologies",
      "DHCP options need DHCP leases; DNS mechanisms need a search domain; "
      "mDNS works even on static-IP networks; IPv6 NDP needs RAs");

  struct Column {
    const char* name;
    NetworkEnvironment env;
  };
  NetworkEnvironment static_ips;
  static_ips.static_ips_only = true;
  static_ips.dhcp_leases = false;
  static_ips.local_dns_search_domain = false;
  static_ips.mdns_responder_present = true;

  NetworkEnvironment dhcp;
  dhcp.local_dns_search_domain = false;
  dhcp.mdns_responder_present = true;

  NetworkEnvironment dhcpv6;
  dhcpv6.dhcp_leases = false;
  dhcpv6.dhcpv6_leases = true;
  dhcpv6.dhcpv6_hint_configured = true;
  dhcpv6.local_dns_search_domain = false;
  dhcpv6.mdns_responder_present = true;

  NetworkEnvironment ipv6_ra;
  ipv6_ra.dhcp_leases = false;
  ipv6_ra.ipv6_ras = true;
  ipv6_ra.mdns_responder_present = true;

  NetworkEnvironment dns;
  dns.dhcp_leases = false;
  dns.mdns_responder_present = true;

  const Column columns[] = {
      {"StaticIPs", static_ips}, {"DHCP", dhcp},       {"DHCPv6", dhcpv6},
      {"IPv6-RA", ipv6_ra},      {"DNS-domain", dns},
  };

  std::printf("%-14s", "mechanism");
  for (const auto& column : columns) std::printf(" %10s", column.name);
  std::printf("\n");
  for (HintMechanism mechanism : all_hint_mechanisms()) {
    std::printf("%-14s", hint_mechanism_name(mechanism));
    for (const auto& column : columns) {
      std::printf(" %10s",
                  mechanism_available(mechanism, column.env) ? "Y" : "N");
    }
    std::printf("\n");
  }
  std::printf("\n");

  bench::print_check(
      mechanism_available(HintMechanism::kMdns, static_ips) &&
          !mechanism_available(HintMechanism::kDhcpVivo, static_ips),
      "static-IP networks: only mDNS remains");
  bench::print_check(
      mechanism_available(HintMechanism::kDhcpVivo, dhcp) &&
          !mechanism_available(HintMechanism::kDnsSrv, dhcp),
      "DHCP column matches Table 2");
  bench::print_check(
      mechanism_available(HintMechanism::kIpv6Ndp, ipv6_ra) &&
          !mechanism_available(HintMechanism::kIpv6Ndp, dhcp),
      "IPv6 NDP requires router advertisements");
  return bench::exit_code();
}
