// Simulated asynchronous network: reliable FIFO point-to-point channels.
//
// Models the client↔server channels of Figure 1: every message sent on a
// channel is eventually delivered, exactly once, in FIFO order, after an
// arbitrary finite delay drawn from a seeded delay model.  Crash support
// exists for modelling a crashed (silent) server or client — crashing is
// the only way a message is ever lost, matching §2 where channels are
// reliable and failures are per-party.
//
// D10 extends the model with declarative chaos (FaultPlan + directed
// partitions): loss, duplication, reordering and latency injection, all
// drawn from a dedicated seeded stream so storms replay deterministically.
// The protocol layers must ride this out WITHOUT firing fail_i — a timing
// fault is not misbehavior (fail-awareness, Def. 5 accuracy) — which the
// chaos differential tests pin.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "net/transport.h"
#include "sim/scheduler.h"  // sim::Time (= exec::Time) for the delay model

namespace faust::net {

/// Uniform random per-message delay in [min_delay, max_delay] ticks.
struct DelayModel {
  sim::Time min_delay = 1;
  sim::Time max_delay = 10;

  sim::Time sample(Rng& rng) const {
    return min_delay == max_delay ? min_delay : rng.next_in(min_delay, max_delay);
  }
};

/// D10 declarative chaos (DESIGN.md): per-message fault probabilities and
/// latency shaping applied deterministically inside Network::send from a
/// dedicated seeded stream — the same seed replays the same storm, which
/// is what lets the differential oracle compare a chaos run against a
/// chaos-free replay. The all-zero default is exactly the pre-chaos
/// fabric: no extra RNG draws happen, so seeded executions without a
/// plan are unchanged.
struct FaultPlan {
  /// Probability each message is dropped at send time.
  double drop = 0;
  /// Probability a message is delivered twice; the duplicate takes its
  /// own independently sampled delay and ignores the FIFO clamp.
  double duplicate = 0;
  /// Probability a message skips the per-channel FIFO clamp, letting it
  /// overtake earlier messages still in flight on its channel.
  double reorder = 0;
  /// Fixed latency added to every message.
  sim::Time extra_delay = 0;
  /// Additional uniform latency in [0, jitter] per message.
  sim::Time jitter = 0;

  bool active() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || extra_delay > 0 || jitter > 0;
  }
};

/// Chaos bookkeeping: what a storm actually did to the fabric.
struct ChaosStats {
  std::uint64_t dropped = 0;            // FaultPlan::drop losses
  std::uint64_t duplicated = 0;         // second deliveries scheduled
  std::uint64_t reordered = 0;          // FIFO-clamp skips that could overtake
  std::uint64_t partition_dropped = 0;  // losses on partitioned channels
};

/// The simulated network fabric (the Transport used by tests/benches).
/// Its wire counters (WireCounters) count every message at send time,
/// before any chaos loss.
///
/// Nodes are attached non-owning; the caller keeps them alive for the
/// lifetime of the Network (standard arrangement in the tests: all parties
/// and the Network live in one harness struct).
class Network : public Transport {
 public:
  /// Runs on any exec::Executor: the deterministic simulator in tests,
  /// a rt::ThreadedRuntime in the threaded shard mode. All calls into a
  /// Network (attach/send/crash) must come from the executor's thread.
  Network(exec::Executor& exec, Rng rng, DelayModel delay = {});

  /// Attaches `node` under `id`, replacing any previous attachment.
  void attach(NodeId id, Node& node) override;

  /// Detaches `id`; in-flight messages to it are dropped at delivery time.
  void detach(NodeId id) override;

  /// Sends `msg` from `from` to `to`. Delivery is scheduled FIFO per
  /// (from,to) channel with a sampled delay. Messages from or to a crashed
  /// node are silently dropped.
  void send(NodeId from, NodeId to, Bytes msg) override;

  /// Marks `id` crashed: it no longer sends or receives anything.
  void crash(NodeId id);
  bool crashed(NodeId id) const { return crashed_.count(id) > 0; }

  /// Kills `id` TRANSIENTLY (a crash the node may come back from, unlike
  /// crash()): every message currently in flight from or to `id` is
  /// dropped, and so is anything sent to it while it is down. Delivery is
  /// epoch-gated — send() stamps both endpoints' epochs onto the message,
  /// kill() bumps the victim's epoch, and a later attach() of the same id
  /// bumps it again — so a restarted node can never receive a message from
  /// a previous incarnation of the channel (a stale pre-crash REPLY would
  /// otherwise race the resubmitted operation and trip the client's
  /// unsolicited-reply check). The node object itself is NOT detached;
  /// destroy/detach it separately.
  void kill(NodeId id);

  /// True between kill(id) and the next attach(id, ...).
  bool killed(NodeId id) const { return killed_.count(id) > 0; }

  // Chaos (D10) ---------------------------------------------------------

  /// Installs (or replaces) the chaos plan. The plan's random draws come
  /// from a stream forked off the delay RNG on first install, so a
  /// plan-free Network's delay sequence is byte-identical to builds that
  /// predate the chaos layer.
  void set_fault_plan(const FaultPlan& plan);
  const FaultPlan& fault_plan() const { return plan_; }

  /// Cuts the DIRECTED from→to channel: sends are dropped (counted), and
  /// so are messages already in flight when delivery comes due.
  /// Asymmetric by design — partition(a,b) alone models a one-way outage;
  /// cut both directions for a full partition. heal()/heal_all() restore.
  void partition(NodeId from, NodeId to) { partitions_.insert({from, to}); }
  void heal(NodeId from, NodeId to) { partitions_.erase({from, to}); }
  void heal_all() { partitions_.clear(); }
  bool partitioned(NodeId from, NodeId to) const {
    return partitions_.count({from, to}) > 0;
  }

  /// Counters for everything the chaos layer did.
  const ChaosStats& chaos() const { return chaos_; }

 private:
  std::uint64_t epoch_of(NodeId id) const {
    auto it = epoch_.find(id);
    return it == epoch_.end() ? 0 : it->second;
  }

  exec::Executor& exec_;
  Rng rng_;
  DelayModel delay_;
  FaultPlan plan_;
  std::optional<Rng> chaos_rng_;  // forked on first set_fault_plan
  std::set<std::pair<NodeId, NodeId>> partitions_;  // directed cut channels
  ChaosStats chaos_;
  std::unordered_map<NodeId, Node*> nodes_;
  /// FIFO per (from,to) channel: its next delivery is not scheduled
  /// before this.
  std::map<std::pair<NodeId, NodeId>, sim::Time> last_scheduled_;
  std::unordered_map<NodeId, char> crashed_;
  std::unordered_map<NodeId, std::uint64_t> epoch_;  // bumped by kill + revival
  std::unordered_set<NodeId> killed_;                // currently-down transients
};

}  // namespace faust::net
