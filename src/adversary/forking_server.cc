#include "adversary/forking_server.h"

#include "common/check.h"

namespace faust::adversary {

ForkingServer::ForkingServer(int n, net::Transport& net, NodeId self)
    : Server(n, net, self, Unattached{}), fork_of_(static_cast<std::size_t>(n), 0) {
  attach();
}

void ForkingServer::assign(ClientId c, int fork) {
  FAUST_CHECK(c >= 1 && c <= core().n());
  FAUST_CHECK(fork >= 0 && fork < num_forks());
  fork_of_[static_cast<std::size_t>(c - 1)] = fork;
}

int ForkingServer::split(ClientId c) {
  FAUST_CHECK(c >= 1 && c <= core().n());
  forks_.push_back(core(fork_of(c)));  // deep copy
  const int fork = num_forks() - 1;
  fork_of_[static_cast<std::size_t>(c - 1)] = fork;
  return fork;
}

int ForkingServer::isolate(ClientId c) {
  FAUST_CHECK(c >= 1 && c <= core().n());
  forks_.emplace_back(core().n());
  const int fork = num_forks() - 1;
  fork_of_[static_cast<std::size_t>(c - 1)] = fork;
  return fork;
}

void ForkingServer::leak_submit(int fork, const ustor::SubmitMessage& m) {
  (void)core(fork).process_submit(m);  // reply discarded
}

const ustor::SubmitMessage* ForkingServer::last_submit(ClientId c) const {
  auto it = captured_.find(c);
  return it == captured_.end() ? nullptr : &it->second;
}

int ForkingServer::fork_of(ClientId c) const {
  FAUST_CHECK(c >= 1 && c <= core().n());
  return fork_of_[static_cast<std::size_t>(c - 1)];
}

ustor::ServerCore& ForkingServer::core(int fork) {
  FAUST_CHECK(fork >= 0 && fork < num_forks());
  return fork == 0 ? core() : forks_[static_cast<std::size_t>(fork - 1)];
}

const ustor::ServerCore& ForkingServer::core(int fork) const {
  FAUST_CHECK(fork >= 0 && fork < num_forks());
  return fork == 0 ? core() : forks_[static_cast<std::size_t>(fork - 1)];
}

std::optional<Bytes> ForkingServer::reply(ustor::ServerCore& core,
                                          const ustor::ServerCore::Answer& a) {
  // The core now holds what the SUBMIT carried: MEM[i] has its timestamp
  // and DATA signature and, for a write, the (spliced) value.
  const ustor::InvocationTuple& op = a.op();
  const ustor::ServerCore::MemEntry& me = core.mem(op.client);
  ustor::SubmitMessage& m = captured_[op.client];
  m.t = me.t;
  m.inv = op;
  m.value = op.oc == ustor::OpCode::kWrite ? ustor::to_owned(me.value) : std::nullopt;
  m.data_sig = me.data_sig.to_bytes();
  return a.encode();
}

}  // namespace faust::adversary
