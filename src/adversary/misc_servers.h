// Additional faulty-server behaviours used by tests and benches. Both are
// ustor::Server with its drops hook set (and, for silence, its reply
// hook), so everything they do serve goes through the honest path.
#pragma once

#include "net/transport.h"
#include "ustor/server.h"

namespace faust::adversary {

/// A server that silently discards all COMMIT messages, piggybacked ones
/// included (SVER and P never advance, L grows without bound).  The
/// *committing client itself* detects this on its next operation: the
/// reply's version cannot extend its own (line 36 of Algorithm 1).
/// Demonstrates that commit omission is not a viable attack.
class CommitDroppingServer : public ustor::Server {
 public:
  CommitDroppingServer(int n, net::Transport& net, NodeId self = kServerNode);

 protected:
  bool drops(ustor::MsgType type) const override { return type == ustor::MsgType::kCommit; }
};

/// A server that serves the first `serve_ops` SUBMITs correctly and then
/// goes silent forever (crash fault).  Outstanding and future operations
/// never complete — the paper's point that liveness cannot be forced on a
/// faulty server — but no client may ever emit fail_i because of it
/// (failure-detection accuracy), and FAUST's offline exchange must keep
/// stability flowing for the operations that did complete.
class SilencingServer : public ustor::Server {
 public:
  SilencingServer(int n, net::Transport& net, std::uint64_t serve_ops,
                  NodeId self = kServerNode);

  bool silenced() const { return served_ >= serve_ops_; }

 protected:
  bool drops(ustor::MsgType) const override { return silenced(); }
  std::optional<Bytes> reply(ustor::ServerCore& core,
                             const ustor::ServerCore::Answer& a) override;

 private:
  const std::uint64_t serve_ops_;
  std::uint64_t served_ = 0;
};

}  // namespace faust::adversary
