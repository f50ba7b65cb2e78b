// A Byzantine server that corrupts protocol fields.
//
// Unlike the forking server (which lies *consistently* and is therefore
// undetectable by USTOR alone), TamperServer sends replies that violate
// some signed invariant.  Algorithm 1's checks must catch every such
// corruption immediately and attribute it to the right line — the
// parameterized test suite and the attack-campaign bench (C5) sweep every
// `Tamper` mode and assert the expected FailCause. It is ustor::Server
// with the reply hook overridden: every other reply, delta replies to
// advertised-base reads included, is the honest one.
#pragma once

#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "ustor/server.h"

namespace faust::adversary {

/// What to corrupt in the victim's next read REPLY.
enum class Tamper {
  kNone,               // behave correctly (control group)
  kValue,              // flip bits in the returned register value
  kValueFreshSig,      // substitute a value, keep the (now wrong) DATA sig
  kStaleTimestamp,     // roll MEM[j].t back by one, keep everything else
  kVersionVector,      // inflate an entry of SVER[c]'s timestamp vector
  kCommitSig,          // corrupt the COMMIT signature of SVER[c]
  kWriterCommitSig,    // corrupt the COMMIT signature of SVER[j]
  kDataSig,            // corrupt MEM[j]'s DATA signature
  kProofSig,           // corrupt a PROOF signature in P
  kSubmitSigInL,       // corrupt a SUBMIT signature inside L
  kEchoSelfInL,        // list the victim's own operation in L
  kDuplicateInL,       // list another client's operation twice in L
  kWrongCommitter,     // claim the last committer is someone else
  kGarbage,            // reply with random bytes
  kDropReadPayload,    // answer a read with a write-shaped reply
  kAddReadPayload,     // answer a write with a read-shaped reply
};

/// Correct server except for one targeted corruption.
class TamperServer : public ustor::Server {
 public:
  /// Corrupts the reply to `victim`'s `fire_on_op`-th operation (1-based
  /// count of the victim's processed SUBMITs); all other traffic is
  /// served honestly. The corrupted reply is always a full REPLY, even to
  /// an advertised-base read.
  TamperServer(int n, net::Transport& net, Tamper mode, ClientId victim, int fire_on_op = 2,
               NodeId self = kServerNode);

  /// True once the corruption has been sent.
  bool fired() const { return fired_; }

 protected:
  std::optional<Bytes> reply(ustor::ServerCore& core,
                             const ustor::ServerCore::Answer& a) override;

 private:
  ustor::ReplyMessage corrupt(ustor::ReplyMessage reply, const ustor::InvocationTuple& op,
                              const ustor::ServerCore& core);

  const Tamper mode_;
  const ClientId victim_;
  const int fire_on_op_;
  int victim_ops_ = 0;
  bool fired_ = false;

  // State history per client, recorded at each of its ops, so that the
  // replay attack (kStaleTimestamp) can serve *old* data with *valid* old
  // signatures — the strongest form of the attack, defeated only by the
  // freshness checks of lines 51–52.
  std::unordered_map<ClientId, std::vector<ustor::ServerCore::MemEntry>> mem_history_;
  std::unordered_map<ClientId, std::vector<ustor::SignedVersion>> sver_history_;
};

}  // namespace faust::adversary
