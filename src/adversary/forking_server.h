// Byzantine servers that mount forking attacks (§1, §4).
//
// A forking server is "the correct server, run several times": it keeps
// one `ustor::ServerCore` per fork and serves each client from the core
// its fork group owns (the core_of hook of ustor::Server, so duplicates
// and parked SUBMITs are handled per fork too).  Within a fork every
// USTOR check passes — that is the whole point of the attack — but
// clients in different forks stop seeing each other's operations, and the
// signed versions they commit become ≼-incomparable.  USTOR alone never
// notices; FAUST's offline version exchange does (Def. 5, detection
// completeness), which the adversary cannot prevent because it does not
// control the client-to-client channel.
//
// Building blocks:
//   * partition at start (classic SUNDR-style fork),
//   * split(c): fork a client off mid-execution with a copy of the state
//     (equivalently: serve it an eternally stale snapshot — a replay
//     attack is a fork whose core stops receiving others' updates),
//   * leak_submit(): replay one client's SUBMIT into another fork without
//     its COMMIT — exactly the move that produces the weak-fork-
//     linearizable history of Figure 3.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "ustor/server.h"

namespace faust::adversary {

/// A server that maintains several independent copies of the protocol
/// state and assigns each client to one of them.
class ForkingServer : public ustor::Server {
 public:
  /// All clients start in fork 0 (a single, correct-looking world).
  ForkingServer(int n, net::Transport& net, NodeId self = kServerNode);

  /// Moves `c` to fork `fork` (which must exist). Its future operations
  /// run against that fork's state.
  void assign(ClientId c, int fork);

  /// Creates a new fork whose state is a deep copy of `c`'s current fork
  /// and moves `c` into it. From here on, `c` lives in a frozen world that
  /// only its own operations advance — the "stale snapshot / replay"
  /// attack. Returns the new fork index.
  int split(ClientId c);

  /// Creates a new, completely empty fork and moves `c` into it: the
  /// server pretends no other client ever existed. Returns the fork index.
  /// Only *consistent* for a victim with no completed operations (the
  /// Figure 3 situation) — an empty world cannot extend a non-zero
  /// version, so a seasoned victim detects this on its next operation
  /// (line 36 of Algorithm 1).
  int isolate(ClientId c);

  /// Replays a captured SUBMIT of some client into `fork`'s core without
  /// the matching COMMIT — making that operation appear as a concurrent,
  /// uncommitted operation in the fork (Figure 3's enabling move).
  void leak_submit(int fork, const ustor::SubmitMessage& m);

  /// Last SUBMIT captured from `c` (nullptr if none yet), as the full
  /// SUBMIT it amounts to: a delta write carries the spliced value.
  const ustor::SubmitMessage* last_submit(ClientId c) const;

  int fork_of(ClientId c) const;
  int num_forks() const { return static_cast<int>(forks_.size()) + 1; }
  using Server::core;  // fork 0
  ustor::ServerCore& core(int fork);
  const ustor::ServerCore& core(int fork) const;

 protected:
  ustor::ServerCore& core_of(ClientId c) override { return core(fork_of(c)); }
  /// Captures the op for last_submit(), then answers honestly.
  std::optional<Bytes> reply(ustor::ServerCore& core,
                             const ustor::ServerCore::Answer& a) override;

 private:
  std::deque<ustor::ServerCore> forks_;  // forks 1.. (fork 0 is Server::core())
  std::vector<int> fork_of_;             // index: client-1
  std::unordered_map<ClientId, ustor::SubmitMessage> captured_;
};

}  // namespace faust::adversary
