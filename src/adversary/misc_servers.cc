#include "adversary/misc_servers.h"

namespace faust::adversary {

CommitDroppingServer::CommitDroppingServer(int n, net::Transport& net, NodeId self)
    : Server(n, net, self, Unattached{}) {
  attach();
}

SilencingServer::SilencingServer(int n, net::Transport& net, std::uint64_t serve_ops, NodeId self)
    : Server(n, net, self, Unattached{}), serve_ops_(serve_ops) {
  attach();
}

std::optional<Bytes> SilencingServer::reply(ustor::ServerCore& core,
                                            const ustor::ServerCore::Answer& a) {
  // A SUBMIT parked before the silence and released after it gets no
  // reply either: crash, no reply, ever.
  if (silenced()) return std::nullopt;
  ++served_;
  return Server::reply(core, a);
}

}  // namespace faust::adversary
