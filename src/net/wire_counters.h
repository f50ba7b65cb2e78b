// net::WireCounters — the one per-channel traffic mirror every
// net::Transport carries (DESIGN.md D2): what the protocol PUT on each
// channel, so bytes/op numbers are comparable across the simulated
// fabric, the threaded bus and real sockets.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "common/bytes.h"
#include "common/ids.h"

namespace faust::net {

/// Per-direction traffic counters (used by the overhead/throughput benches).
struct ChannelStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  /// Accumulation across channels or deployments (the sharded harness sums
  /// every shard's fabric into one aggregate).
  ChannelStats& operator+=(const ChannelStats& other) {
    messages += other.messages;
    bytes += other.bytes;
    return *this;
  }
};

/// Message and byte counts per directed (from,to) channel and per leading
/// wire tag, plus their aggregates. net::Transport derives from it: each
/// transport calls count() once per message it accepts, and the five
/// readers answer the same way on every transport.
class WireCounters {
 public:
  /// Messages are bucketed by their leading wire tag (ustor::MsgType
  /// values; bench JSON reports bytes/op per message type). Tags >=
  /// kTypeBuckets and empty messages land in bucket 0 (never produced by
  /// this codebase's encoders).
  static constexpr std::size_t kTypeBuckets = 16;
  using TypeStats = std::array<ChannelStats, kTypeBuckets>;

  /// Aggregate counters over all channels.
  ChannelStats total() const;
  /// Aggregate per-type counters over all channels.
  TypeStats total_by_type() const;
  ChannelStats total_for(std::uint8_t tag) const;
  /// Counters for the (from,to) directed channel (zero if never used).
  ChannelStats channel(NodeId from, NodeId to) const;
  /// Per-type counters for the (from,to) directed channel.
  ChannelStats channel_for(NodeId from, NodeId to, std::uint8_t tag) const;

 protected:
  /// `locked`: count() and the readers serialize on an internal mutex,
  /// for a transport whose send() runs on several threads. A transport
  /// confined to one executor thread (net::Network) passes false and
  /// counts without taking a lock.
  explicit WireCounters(bool locked) : locked_(locked) {}

  /// Counts one message on the (from,to) channel.
  void count(NodeId from, NodeId to, BytesView msg);

 private:
  struct Counts {
    ChannelStats all;
    TypeStats by_type{};
  };

  std::unique_lock<std::mutex> guard() const;

  const bool locked_;
  mutable std::mutex mu_;  // guards total_ and channels_ when locked_
  Counts total_;
  std::map<std::pair<NodeId, NodeId>, Counts> channels_;
};

}  // namespace faust::net
