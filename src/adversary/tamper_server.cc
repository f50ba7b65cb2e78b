#include "adversary/tamper_server.h"

#include <utility>

#include "common/check.h"

namespace faust::adversary {
namespace {

/// Flips one bit; turns an empty byte string into a non-empty one so that
/// "corrupt" never accidentally equals the original.
void corrupt_bytes(Bytes& b) {
  if (b.empty()) {
    b.push_back(0xff);
  } else {
    b[b.size() / 2] ^= 0x01;
  }
}

void corrupt_value(ustor::Value& v) {
  if (v.has_value()) {
    corrupt_bytes(*v);
  } else {
    v = to_bytes("forged");
  }
}

}  // namespace

TamperServer::TamperServer(int n, net::Transport& net, Tamper mode, ClientId victim,
                           int fire_on_op, NodeId self)
    : Server(n, net, self, Unattached{}), mode_(mode), victim_(victim), fire_on_op_(fire_on_op) {
  attach();
}

std::optional<Bytes> TamperServer::reply(ustor::ServerCore& core,
                                         const ustor::ServerCore::Answer& a) {
  const ustor::InvocationTuple& op = a.op();
  mem_history_[op.client].push_back(core.mem(op.client));
  sver_history_[op.client].push_back(core.sver(op.client));
  if (op.client != victim_ || ++victim_ops_ != fire_on_op_ || mode_ == Tamper::kNone ||
      fired_) {
    return a.encode();
  }
  fired_ = true;
  if (mode_ == Tamper::kGarbage) {
    // Not even a decodable message.
    Bytes junk(64);
    for (std::size_t i = 0; i < junk.size(); ++i) {
      junk[i] = static_cast<std::uint8_t>(0xa5 ^ i);
    }
    return junk;
  }
  // Materialized: the tamper modes below mutate the reply freely.
  return ustor::encode(corrupt(a.reply.materialize(), op, core));
}

ustor::ReplyMessage TamperServer::corrupt(ustor::ReplyMessage reply,
                                          const ustor::InvocationTuple& op,
                                          const ustor::ServerCore& core) {
  switch (mode_) {
    case Tamper::kNone:
    case Tamper::kGarbage:
      break;
    case Tamper::kValue:
    case Tamper::kValueFreshSig:
      if (reply.read.has_value()) corrupt_value(reply.read->value);
      break;
    case Tamper::kStaleTimestamp: {
      // Serve state from before C_j's latest operation, with its
      // perfectly valid old signatures: the signature checks (lines
      // 49–50) all pass, and only the freshness checks of lines 51–52 can
      // catch the replay.
      if (!reply.read.has_value()) break;
      const ClientId j = op.target;
      const auto& mems = mem_history_[j];
      if (mems.size() < 2) break;  // nothing older to replay yet
      const ustor::ServerCore::MemEntry& stale = mems[mems.size() - 2];
      reply.read->tj = stale.t;
      reply.read->value = ustor::to_owned(stale.value);
      reply.read->data_sig = stale.data_sig.to_bytes();
      // Pair it with the newest old version whose own entry is <= stale.t
      // (the most convincing consistent lie available to the server).
      const auto& svers = sver_history_[j];
      ustor::SignedVersion old_sver;
      old_sver.version = ustor::Version(core.n());
      for (const ustor::SignedVersion& sv : svers) {
        if (sv.version.v(j) <= stale.t) old_sver = sv;
      }
      reply.read->writer = old_sver;
      break;
    }
    case Tamper::kVersionVector: {
      ustor::Version& v = reply.last.version;
      if (v.n() > 0) {
        const ClientId k = (op.client % v.n()) + 1;  // some index ≠ pattern-free
        v.v(k) += 1;
      }
      break;
    }
    case Tamper::kCommitSig:
      corrupt_bytes(reply.last.commit_sig);
      break;
    case Tamper::kWriterCommitSig:
      if (reply.read.has_value()) corrupt_bytes(reply.read->writer.commit_sig);
      break;
    case Tamper::kDataSig:
      if (reply.read.has_value()) corrupt_bytes(reply.read->data_sig);
      break;
    case Tamper::kProofSig:
      for (Bytes& p : reply.P) corrupt_bytes(p);
      break;
    case Tamper::kSubmitSigInL:
      if (!reply.L.empty()) corrupt_bytes(reply.L.front().submit_sig);
      break;
    case Tamper::kEchoSelfInL:
      reply.L.push_back(op);
      break;
    case Tamper::kDuplicateInL:
      // A client can have at most one outstanding operation; a duplicate
      // entry forces the victim to re-verify the PROOF signature against
      // the chained digest, which C_k never signed (line 41 fires).
      if (!reply.L.empty()) reply.L.push_back(reply.L.front());
      break;
    case Tamper::kWrongCommitter:
      reply.c = (reply.c % core.n()) + 1;
      break;
    case Tamper::kDropReadPayload:
      reply.read.reset();
      break;
    case Tamper::kAddReadPayload:
      if (!reply.read.has_value()) {
        ustor::ReadPayload rp;
        rp.writer.version = ustor::Version(core.n());
        reply.read = std::move(rp);
      }
      break;
  }
  return reply;
}

}  // namespace faust::adversary
