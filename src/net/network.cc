#include "net/network.h"

#include <utility>

namespace faust::net {

Network::Network(exec::Executor& exec, Rng rng, DelayModel delay)
    : Transport(/*locked_counters=*/false), exec_(exec), rng_(std::move(rng)), delay_(delay) {}

void Network::attach(NodeId id, Node& node) {
  // Re-attaching after a kill is a revival: bump the epoch again so that
  // anything sent towards the dead node during its downtime (stamped with
  // the post-kill epoch) stays undeliverable to the new incarnation.
  if (killed_.erase(id) > 0) ++epoch_[id];
  nodes_[id] = &node;
}

void Network::detach(NodeId id) { nodes_.erase(id); }

void Network::send(NodeId from, NodeId to, Bytes msg) {
  if (crashed(from) || crashed(to)) return;

  count(from, to, msg);

  // D10 chaos: counters above record what the protocol PUT on the channel
  // (comparable with the chaos-free run); losses happen after.
  if (partitioned(from, to)) {
    ++chaos_.partition_dropped;
    return;
  }
  if (plan_.drop > 0 && chaos_rng_->chance(plan_.drop)) {
    ++chaos_.dropped;
    return;
  }
  sim::Time extra = plan_.extra_delay;
  if (plan_.jitter > 0) extra += chaos_rng_->next_in(0, plan_.jitter);

  // FIFO per channel: a message never overtakes an earlier one. Equal
  // delivery times are fine — the scheduler runs same-tick events in
  // schedule (i.e. send) order.
  const sim::Time earliest = exec_.now() + delay_.sample(rng_) + extra;
  sim::Time& last_scheduled = last_scheduled_[{from, to}];
  sim::Time when = std::max(earliest, last_scheduled);
  if (plan_.reorder > 0 && chaos_rng_->chance(plan_.reorder)) {
    // Chaos reorder: this message ignores the FIFO clamp (it may overtake
    // in-flight channel traffic) and does not advance it for later sends.
    if (earliest < when) ++chaos_.reordered;
    when = earliest;
  } else {
    last_scheduled = when;
  }

  // The buffer is moved into shared ownership once and delivered as such:
  // a receiver that retains a slice (the server keeps submitted register
  // values) pins the buffer instead of copying it. Both endpoints' epochs
  // are stamped at send time: a kill() (or kill+revive) of either endpoint
  // between send and delivery invalidates the message.
  const std::uint64_t ef = epoch_of(from);
  const std::uint64_t et = epoch_of(to);
  auto m = std::make_shared<const Bytes>(std::move(msg));
  const auto deliver = [this, from, to, ef, et, m]() {
    if (crashed(to) || crashed(from)) return;  // crash between send and delivery
    if (epoch_of(from) != ef || epoch_of(to) != et) return;  // kill/revive raced it
    if (partitioned(from, to)) {  // partition raced the in-flight message
      ++chaos_.partition_dropped;
      return;
    }
    auto it = nodes_.find(to);
    if (it == nodes_.end()) return;
    it->second->on_shared_message(from, m);
  };
  exec_.at(when, deliver);
  if (plan_.duplicate > 0 && chaos_rng_->chance(plan_.duplicate)) {
    ++chaos_.duplicated;
    exec_.at(exec_.now() + delay_.sample(*chaos_rng_) + extra, deliver);
  }
}

void Network::set_fault_plan(const FaultPlan& plan) {
  // The chaos stream is forked lazily so that a Network which never
  // installs a plan draws exactly the pre-chaos delay sequence.
  if (!chaos_rng_.has_value()) chaos_rng_ = rng_.fork();
  plan_ = plan;
}

void Network::crash(NodeId id) { crashed_[id] = 1; }

void Network::kill(NodeId id) {
  ++epoch_[id];
  killed_.insert(id);
}

}  // namespace faust::net
