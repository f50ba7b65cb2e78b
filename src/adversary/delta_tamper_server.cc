#include "adversary/delta_tamper_server.h"

#include <utility>

namespace faust::adversary {

DeltaTamperServer::DeltaTamperServer(int n, net::Transport& net, DeltaTamper mode,
                                     ClientId victim, int fire_on_read, NodeId self)
    : Server(n, net, self, Unattached{}), mode_(mode), victim_(victim),
      fire_on_read_(fire_on_read) {
  attach();
}

std::optional<Bytes> DeltaTamperServer::reply(ustor::ServerCore& /*core*/,
                                              const ustor::ServerCore::Answer& a) {
  // Delta writes, plain reads and every advertised read but the targeted
  // one are served honestly: the attack is one read reply.
  if (!a.advertised || a.op().client != victim_ || ++victim_reads_ != fire_on_read_ ||
      mode_ == DeltaTamper::kNone || fired_) {
    return a.encode();
  }
  fired_ = true;
  return tampered(a);
}

Bytes DeltaTamperServer::tampered(const ustor::ServerCore::Answer& a) const {
  // Materialize a REPLY_DELTA the honest protocol would never send. The
  // version/L/P parts stay truthful — only the value transport lies, so
  // the victim's version checks pass and the data verification alone must
  // catch the corruption.
  const ustor::ReplySnapshot& reply = a.reply;
  ustor::ReplyDeltaMessage rd;
  rd.c = reply.c;
  rd.last = reply.last;
  rd.read.writer = reply.read->writer;
  rd.read.tj = reply.read->tj;
  rd.read.base_digest = a.plan.base_digest;
  rd.read.data_sig = reply.read->data_sig.to_bytes();
  rd.L.assign(reply.L->begin(),
              reply.L->begin() + static_cast<std::ptrdiff_t>(reply.l_count));
  rd.P = *reply.P;
  const BytesView cur =
      reply.read->value.has_value() ? reply.read->value->view() : BytesView{};

  switch (mode_) {
    case DeltaTamper::kNone:
      break;
    case DeltaTamper::kSpliceBytes: {
      rd.read.unchanged = false;
      if (a.serving == ustor::ReadServing::kDelta) {
        rd.read.new_size = a.plan.new_size;
        for (const auto& run : a.plan.runs) {
          rd.read.splices.insert(rd.read.splices.end(), run.begin(), run.end());
        }
      } else {
        // No genuine delta available: ship a whole-value replacement splice.
        rd.read.new_size = cur.size();
        rd.read.splices.push_back(
            ustor::Splice{0, cur.size(), Bytes(cur.begin(), cur.end())});
      }
      for (ustor::Splice& s : rd.read.splices) {
        if (!s.insert.empty()) {
          s.insert[s.insert.size() / 2] ^= 0x01;  // the actual corruption
          break;
        }
      }
      break;
    }
    case DeltaTamper::kForgedRoot: {
      // The splices rebuild current-value‖0x5a; the DATA signature is the
      // genuine one over the current value, so every signature check the
      // victim can run on the bytes themselves passes — only re-rooting
      // the rebuilt value exposes the forgery.
      rd.read.unchanged = false;
      rd.read.new_size = cur.size() + 1;
      rd.read.splices.push_back(ustor::Splice{0, cur.size(), Bytes(cur.begin(), cur.end())});
      rd.read.splices.push_back(ustor::Splice{cur.size(), 0, Bytes{0x5a}});
      break;
    }
    case DeltaTamper::kLieUnchanged:
      // base_digest already echoes the victim's advertised base; claiming
      // "unchanged" while MEM[j] moved on pairs the old value with a DATA
      // signature over the new root.
      rd.read.unchanged = true;
      break;
    case DeltaTamper::kStaleBase:
      // A base the reader never advertised: unresolvable by construction.
      rd.read.unchanged = true;
      rd.read.base_digest[0] ^= 0x01;
      break;
  }
  return ustor::encode(rd);
}

}  // namespace faust::adversary
