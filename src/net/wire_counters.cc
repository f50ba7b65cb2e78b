#include "net/wire_counters.h"

namespace faust::net {
namespace {

std::size_t bucket_of(std::uint8_t tag) {
  return tag < WireCounters::kTypeBuckets ? tag : 0;
}

}  // namespace

std::unique_lock<std::mutex> WireCounters::guard() const {
  return locked_ ? std::unique_lock(mu_) : std::unique_lock<std::mutex>();
}

void WireCounters::count(NodeId from, NodeId to, BytesView msg) {
  const std::size_t bucket = msg.empty() ? 0 : bucket_of(msg[0]);
  const auto lock = guard();
  for (Counts* c : {&total_, &channels_[{from, to}]}) {
    c->all += ChannelStats{1, msg.size()};
    c->by_type[bucket] += ChannelStats{1, msg.size()};
  }
}

ChannelStats WireCounters::total() const {
  const auto lock = guard();
  return total_.all;
}

WireCounters::TypeStats WireCounters::total_by_type() const {
  const auto lock = guard();
  return total_.by_type;
}

ChannelStats WireCounters::total_for(std::uint8_t tag) const {
  const auto lock = guard();
  return total_.by_type[bucket_of(tag)];
}

ChannelStats WireCounters::channel(NodeId from, NodeId to) const {
  const auto lock = guard();
  const auto it = channels_.find({from, to});
  return it == channels_.end() ? ChannelStats{} : it->second.all;
}

ChannelStats WireCounters::channel_for(NodeId from, NodeId to, std::uint8_t tag) const {
  const auto lock = guard();
  const auto it = channels_.find({from, to});
  return it == channels_.end() ? ChannelStats{} : it->second.by_type[bucket_of(tag)];
}

}  // namespace faust::net
