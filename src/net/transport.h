// Transport abstraction (DESIGN.md, decision D2).
//
// Protocol code (USTOR, FAUST, the baselines) is written against this
// interface only: attach a receiver, send bytes.  Three implementations
// ship with the repository:
//   * net::Network — the deterministic discrete-event simulation used by
//     tests, benches and examples;
//   * rt::ThreadBus — a real multi-threaded in-process message bus
//     (src/rt), demonstrating that the same protocol objects run outside
//     the simulator unchanged;
//   * sock::SocketTransport — TCP / Unix-domain sockets between processes
//     (src/sock, DESIGN.md D9).
// The traffic counters live at this seam too: every transport is a
// WireCounters and counts each message it accepts through it.
#pragma once

#include <memory>

#include "common/bytes.h"
#include "common/ids.h"
#include "net/wire_counters.h"

namespace faust::net {

/// Receiver interface for nodes attached to a transport.
class Node {
 public:
  virtual ~Node() = default;

  /// Called on message delivery. `msg` is only valid for the duration of
  /// the call; copy it if needed beyond that. For any given node, calls
  /// are serialized (never concurrent with each other).
  virtual void on_message(NodeId from, BytesView msg) = 0;

  /// Shared-ownership delivery: a transport that retains messages in
  /// shared buffers hands the buffer itself over, so a receiver that
  /// wants to KEEP (part of) the message pins it instead of copying —
  /// the USTOR server stores submitted register values this way
  /// (PERF.md "O(change) operations"). Default: plain on_message.
  virtual void on_shared_message(NodeId from, const std::shared_ptr<const Bytes>& msg) {
    on_message(from, BytesView(*msg));
  }
};

/// Point-to-point reliable FIFO message fabric.
class Transport : public WireCounters {
 public:
  virtual ~Transport() = default;

  /// Attaches `node` under `id`, replacing any previous attachment. The
  /// caller keeps `node` alive until detach or transport destruction.
  virtual void attach(NodeId id, Node& node) = 0;

  /// Detaches `id`; messages to it are dropped from now on.
  virtual void detach(NodeId id) = 0;

  /// Sends `msg` from `from` to `to`: reliable, FIFO per (from,to) pair.
  virtual void send(NodeId from, NodeId to, Bytes msg) = 0;

 protected:
  /// `locked_counters`: see WireCounters (false only for a transport
  /// confined to one thread).
  explicit Transport(bool locked_counters = true) : WireCounters(locked_counters) {}
};

}  // namespace faust::net
