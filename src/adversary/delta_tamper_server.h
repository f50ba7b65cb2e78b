// A Byzantine server that attacks the D6 delta wire protocol itself.
//
// TamperServer covers corruptions of the full REPLY; the delta path adds
// new lies a server could try — tampered splice payloads, a delta that
// rebuilds a value its DATA signature never covered, a false "unchanged"
// token, a base digest the reader never advertised. None of them may cost
// correctness: the victim must reject the reply, keep its verified memos
// untouched, fall back to a full re-read and complete with the right
// value, WITHOUT declaring the server faulty (a delta mismatch is not
// transferable evidence — an honest server can race a concurrent writer).
#pragma once

#include "net/transport.h"
#include "ustor/server.h"

namespace faust::adversary {

/// What to distort in the victim's targeted REPLY_DELTA.
enum class DeltaTamper {
  kNone,          // behave correctly (control group)
  kSpliceBytes,   // flip bits inside a splice's insert payload
  kForgedRoot,    // splices rebuild a value the (genuine) DATA sig never covered
  kLieUnchanged,  // claim "unchanged" for a register that moved on
  kStaleBase,     // echo a base digest the reader never advertised
};

/// A delta-speaking server, correct except for one targeted corruption of
/// the victim's `fire_on_read`-th advertised-base read.
class DeltaTamperServer : public ustor::Server {
 public:
  DeltaTamperServer(int n, net::Transport& net, DeltaTamper mode, ClientId victim,
                    int fire_on_read = 1, NodeId self = kServerNode);

  /// True once the corruption has been sent.
  bool fired() const { return fired_; }

 protected:
  std::optional<Bytes> reply(ustor::ServerCore& core,
                             const ustor::ServerCore::Answer& a) override;

 private:
  /// The REPLY_DELTA sent in place of the victim's targeted read reply.
  Bytes tampered(const ustor::ServerCore::Answer& a) const;

  const DeltaTamper mode_;
  const ClientId victim_;
  const int fire_on_read_;
  int victim_reads_ = 0;
  bool fired_ = false;
};

}  // namespace faust::adversary
