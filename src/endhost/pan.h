// The PAN-style application library (Section 4.2): the drop-in socket API
// that makes applications SCION-aware with a handful of lines (Section
// 5.2's bat/Caddy/netcat case studies). The library resolves its
// operating mode automatically (Section 4.2.1):
//
//   daemon-dependent      — a daemon is running; use it for paths/TRCs.
//   bootstrapper-dependent — no daemon, but a pre-installed bootstrapper
//                            left configuration behind.
//   standalone            — nothing installed: the library bootstraps
//                            itself in-process ("it will just work").
#pragma once

#include <memory>
#include <vector>

#include "endhost/bootstrapper.h"
#include "endhost/daemon.h"
#include "endhost/dispatcher.h"
#include "endhost/policy.h"

namespace sciera::endhost {

enum class StackMode {
  kDaemonDependent,
  kBootstrapperDependent,
  kStandalone,
};

[[nodiscard]] const char* stack_mode_name(StackMode mode);

class PanSocket;

class PanContext {
 private:
  // What a host offers the library. Private: only the Builder fills it,
  // so every context is validated before it exists.
  struct Environment {
    controlplane::ScionNetwork* net = nullptr;
    dataplane::Address address;
    Daemon* daemon = nullptr;                       // running daemon, if any
    const BootstrapResult* bootstrapper_state = nullptr;  // pre-installed
    const BootstrapServer* bootstrap_server = nullptr;    // reachable in-AS
    NetworkEnvironment network_env;
    HostStack::Config stack_config;
  };

 public:
  // Validated construction: the only way to stand up a PAN stack.
  // Rejects a missing network, an address whose AS is not in the
  // topology, and a daemon serving a different AS than the address.
  //
  //   auto ctx = PanContext::Builder{}
  //                  .net(network)
  //                  .address({ia, host})
  //                  .daemon(daemon)
  //                  .build(Rng{seed});
  class Builder {
   public:
    Builder& net(controlplane::ScionNetwork& net) {
      env_.net = &net;
      return *this;
    }
    Builder& address(const dataplane::Address& address) {
      env_.address = address;
      return *this;
    }
    Builder& daemon(Daemon& daemon) {
      env_.daemon = &daemon;
      return *this;
    }
    Builder& bootstrapper_state(const BootstrapResult& state) {
      env_.bootstrapper_state = &state;
      return *this;
    }
    Builder& bootstrap_server(const BootstrapServer& server) {
      env_.bootstrap_server = &server;
      return *this;
    }
    Builder& network_env(NetworkEnvironment network_env) {
      env_.network_env = std::move(network_env);
      return *this;
    }
    Builder& stack_config(HostStack::Config config) {
      env_.stack_config = config;
      return *this;
    }
    [[nodiscard]] Result<std::unique_ptr<PanContext>> build(Rng rng);

   private:
    Environment env_;
  };

  [[nodiscard]] StackMode mode() const { return mode_; }
  // Time the application spent bootstrapping (zero with a daemon).
  [[nodiscard]] Duration bootstrap_time() const { return bootstrap_time_; }
  [[nodiscard]] HostStack& stack() { return *stack_; }
  [[nodiscard]] controlplane::ScionNetwork& network() { return *env_.net; }
  [[nodiscard]] const dataplane::Address& local_address() const {
    return env_.address;
  }

  // Live paths toward dst under a policy (already sorted best-first): a
  // copy of the lookup's set for listings and interactive selection.
  // Sends select without copying (a PathSelector over path_set()).
  [[nodiscard]] std::vector<controlplane::Path> paths(
      IsdAs dst, const PathPolicy& policy = PathPolicy{});

  // Data-plane failure feedback propagated from sockets. Also un-pins the
  // path on every socket of this context that had it selected — a pinned
  // path must not survive its own down report. The key is taken by value:
  // the un-pinning may destroy the path a caller's reference points into.
  void report_path_down(std::string fingerprint);

  // Currently quarantined fingerprints: the daemon's table in daemon mode,
  // the private one otherwise. Expired entries are pruned on every lookup
  // and report, so neither grows without bound.
  [[nodiscard]] std::size_t quarantined() const;

  // Network-change handling (Section 4.2.1: standalone mode re-bootstraps
  // per application). Returns the re-bootstrap cost.
  Result<Duration> handle_network_change(Rng& rng);

 private:
  friend class PanSocket;
  PanContext(Environment env, StackMode mode);

  void register_socket(PanSocket* socket);
  void unregister_socket(PanSocket* socket);

  // One lookup toward dst: the daemon's or the control service's shared
  // set, down paths included (filter with path_alive()).
  [[nodiscard]] controlplane::PathSet path_set(IsdAs dst);
  [[nodiscard]] bool path_alive(const controlplane::Path& path) const;
  // Erases private quarantine entries whose penalty has elapsed.
  void prune_quarantine();

  Environment env_;
  StackMode mode_;
  std::unique_ptr<HostStack> stack_;
  std::optional<BootstrapResult> own_bootstrap_;
  Duration bootstrap_time_ = 0;
  // Standalone/bootstrapper modes keep a private liveness table (no shared
  // daemon cache — the cost called out in Section 4.2.1).
  std::map<std::string, SimTime> down_until_;
  // Open sockets, so down reports can invalidate their pinned paths.
  std::vector<PanSocket*> sockets_;
};

// What a send actually did: which path carried the datagram, which stack
// mode served it, and whether the library had to substitute a different
// path for a pinned-but-unusable one. Applications that care about path
// stability (the gaming case study) read `failover`; everyone else can
// ignore the receipt.
struct SendReceipt {
  std::string path_fingerprint;  // empty for intra-AS (empty-path) sends
  StackMode mode = StackMode::kStandalone;
  std::size_t bytes_queued = 0;  // wire size handed to the host stack
  bool failover = false;         // pinned path was down; substitute used
};

// A drop-in UDP-style socket (Section 4.2.2): mirrors sendto/recvfrom
// while adding path awareness. Handles Layer-2.5 encapsulation, path
// selection under the configured policy, and failover.
class PanSocket {
 public:
  using Handler = std::function<void(const dataplane::Address& src,
                                     std::uint16_t src_port, const Bytes& data,
                                     SimTime arrival)>;

  // Binds `port` (0 = ephemeral) on the context's host stack.
  static Result<std::unique_ptr<PanSocket>> open(PanContext& ctx,
                                                 std::uint16_t port,
                                                 Handler handler);
  ~PanSocket();
  PanSocket(const PanSocket&) = delete;
  PanSocket& operator=(const PanSocket&) = delete;

  // Replaces the policy; every destination is ranked again on its next
  // send.
  void set_policy(PathPolicy policy) {
    selector_.set_policy(std::move(policy));
  }
  // Interactive path selection (the bat tool's --interactive flag): pin
  // the nth policy-admitted path for a destination.
  Status select_path(IsdAs dst, std::size_t index);
  void clear_selection(IsdAs dst) { pinned_.erase(dst); }
  // The path the next send to dst would use.
  [[nodiscard]] Result<controlplane::Path> current_path(IsdAs dst);

  // Queues `data` toward dst and reports what was done with it (path
  // fingerprint, stack mode, bytes queued, failover substitution).
  Result<SendReceipt> send_to(const dataplane::Address& dst,
                              std::uint16_t dst_port, BytesView data);

  // Rankings this socket has built: one per destination, plus one each
  // time the lookup hands back a new set or the policy changes.
  [[nodiscard]] std::uint64_t rankings_built() const {
    return selector_.rankings_built();
  }

 private:
  friend class PanContext;
  PanSocket(PanContext& ctx, std::uint16_t port);

  struct ResolvedPath {
    // The pinned path, or the selected one inside `set`.
    const controlplane::Path* path = nullptr;
    controlplane::PathSet set;  // holds a selected path alive
    bool failover = false;      // pinned path skipped as unusable
  };
  [[nodiscard]] Result<ResolvedPath> resolve_path(IsdAs dst);
  // Drops any pinned path with this fingerprint (down-report feedback).
  // By value: the key may live inside a pinned path this erases.
  void unpin_fingerprint(std::string fingerprint);

  PanContext& ctx_;
  std::uint16_t port_;
  PathSelector selector_;
  std::map<IsdAs, controlplane::Path> pinned_;
};

}  // namespace sciera::endhost
