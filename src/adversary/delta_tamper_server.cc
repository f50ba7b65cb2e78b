#include "adversary/delta_tamper_server.h"

#include <span>
#include <utility>

namespace faust::adversary {

DeltaTamperServer::DeltaTamperServer(int n, net::Transport& net, DeltaTamper mode,
                                     ClientId victim, int fire_on_read, NodeId self)
    : core_(n), net_(net), self_(self), mode_(mode), victim_(victim),
      fire_on_read_(fire_on_read) {
  net_.attach(self_, *this);
}

void DeltaTamperServer::on_message(NodeId from, BytesView msg) {
  const auto type = ustor::peek_type(msg);
  if (!type.has_value()) return;

  switch (*type) {
    case ustor::MsgType::kSubmit: {
      auto m = ustor::decode_submit(msg);
      if (!m.has_value()) return;
      const ustor::ReplySnapshot reply = core_.process_submit(*m);
      net_.send(self_, from, ustor::encode(reply));
      break;
    }
    case ustor::MsgType::kSubmitDelta: {
      const auto m = ustor::decode_submit_delta_view(msg);
      if (!m.has_value()) return;
      // Delta writes, and every read but the targeted one, are served
      // honestly: the attack is one read reply.
      const bool fire = m->inv.oc != ustor::OpCode::kWrite && m->inv.client == victim_ &&
                        ++victim_reads_ == fire_on_read_ && mode_ != DeltaTamper::kNone &&
                        !fired_;
      if (fire) {
        send_tampered_read(from, *m);
        break;
      }
      auto reply = core_.answer_submit_delta(*m, nullptr);
      if (reply.has_value()) net_.send(self_, from, std::move(*reply));
      break;
    }
    case ustor::MsgType::kCommit: {
      auto m = ustor::decode_commit(msg);
      if (!m.has_value()) return;
      core_.process_commit(static_cast<ClientId>(from), *m);
      break;
    }
    default:
      break;
  }
}

void DeltaTamperServer::send_tampered_read(NodeId from,
                                           const ustor::SubmitDeltaMessageView& m) {
  const ClientId j = m.inv.target;
  if (!core_.is_client(j)) return;

  ustor::SubmitMessage owned;
  owned.t = m.t;
  owned.inv = ustor::to_owned(m.inv);
  owned.data_sig.assign(m.data_sig.begin(), m.data_sig.end());
  const ustor::ReplySnapshot reply = core_.process_submit(owned);

  ustor::ReadDeltaPlan plan;
  const auto serving = core_.plan_read_delta(j, m.base_digest, &plan);
  fired_ = true;

  // Materialize a REPLY_DELTA the honest protocol would never send. The
  // version/L/P parts stay truthful — only the value transport lies, so
  // the victim's version checks pass and the data verification alone must
  // catch the corruption.
  ustor::ReplyDeltaMessage rd;
  rd.c = reply.c;
  rd.last = reply.last;
  rd.read.writer = reply.read->writer;
  rd.read.tj = reply.read->tj;
  rd.read.base_digest = m.base_digest;
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
      if (serving == ustor::ServerCore::ReadServing::kDelta) {
        rd.read.new_size = plan.new_size;
        for (const auto& run : plan.runs) {
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
  net_.send(self_, from, ustor::encode(rd));
}

}  // namespace faust::adversary
