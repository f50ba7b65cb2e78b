// A real (non-simulated) in-process transport: every node gets its own
// delivery thread and a FIFO mailbox protected by a mutex.
//
// This is the proof of DESIGN.md decision D2: the USTOR client and server
// are pure state machines against net::Transport, so the exact objects
// that run under the deterministic simulator also run under genuine
// preemptive concurrency — rt_test drives a full multi-threaded USTOR
// deployment and checks the resulting history with the same
// linearizability checker.
//
// Delivery guarantees match the paper's model: reliable, FIFO per
// (sender, receiver) pair, and per-node handler serialization (a node's
// on_message calls never overlap, since one thread drains its mailbox).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/transport.h"

namespace faust::rt {

/// Multi-threaded message bus implementing net::Transport. Its wire
/// counters count at send time, only messages to a known (attached)
/// destination.
///
/// Usage: attach nodes, exchange traffic, then destroy (or stop());
/// destruction joins all delivery threads after draining is abandoned.
///
/// Attach/detach are safe at any point, including while traffic is
/// already flowing from other threads: the node table is mutated under a
/// lock, a message sent before its destination attaches is dropped
/// (exactly like a send to an unknown node), and a box stays alive —
/// shared ownership — until every in-flight send() that resolved it has
/// let go, so detach never frees state under a concurrent sender.
/// Re-attaching a live id is a usage error and fails loudly
/// (FAUST_CHECK), as does attaching after stop().
class ThreadBus : public net::Transport {
 public:
  ThreadBus() = default;
  ~ThreadBus() override { stop(); }

  ThreadBus(const ThreadBus&) = delete;
  ThreadBus& operator=(const ThreadBus&) = delete;

  void attach(NodeId id, net::Node& node) override;
  void detach(NodeId id) override;
  void send(NodeId from, NodeId to, Bytes msg) override;

  /// Signals all delivery threads to finish their current message and
  /// exit, then joins them. Idempotent. Undelivered messages are dropped
  /// (call drain() first if that matters).
  void stop();

  /// Blocks until every mailbox is empty and every handler returned.
  /// Only meaningful while senders are quiescent.
  void drain();

  /// Messages delivered so far (all nodes).
  std::uint64_t delivered() const;

 private:
  struct Box {
    net::Node* node = nullptr;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<NodeId, Bytes>> queue;
    bool stopping = false;
    bool busy = false;  // handler currently running
    std::thread worker;
  };

  void worker_loop(Box& box);

  mutable std::mutex boxes_mu_;  // guards the map structure only
  // shared_ptr: a sender that resolved a box keeps it alive across the
  // enqueue even if the node detaches concurrently (see class comment).
  std::unordered_map<NodeId, std::shared_ptr<Box>> boxes_;
  std::atomic<std::uint64_t> delivered_{0};
  bool stopped_ = false;
};

}  // namespace faust::rt
