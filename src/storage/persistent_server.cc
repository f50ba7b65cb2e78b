#include "storage/persistent_server.h"

#include "ustor/state_codec.h"
#include "wire/encoder.h"

namespace faust::storage {

PersistentServer::PersistentServer(int n, net::Transport& net, std::string log_path,
                                   NodeId self)
    : Server(n, net, self, Unattached{}), log_(std::move(log_path)) {
  recover();
  attach();
}

PersistentServer::PersistentServer(int n, net::Transport& net, const std::string& dir,
                                   DurabilityOptions options, NodeId self)
    : Server(n, net, self, Unattached{}),
      log_(dir + "/wal.log"),
      snaps_(std::make_unique<SnapshotStore>(dir + "/snapshot.bin")),
      options_(options) {
  recover();
  attach();
}

void PersistentServer::recover() {
  std::size_t skip = 0;
  if (snaps_ != nullptr) {
    if (auto img = snaps_->load(); img.has_value()) {
      if (restore_from_payload(img->payload)) {
        recovered_from_snapshot_ = true;
        skip = static_cast<std::size_t>(img->log_records);
      }
      // A payload that decodes to garbage despite a matching chunk-tree
      // root would mean a ChunkedHasher collision; treat it like any
      // other rejected snapshot and fall back to full replay.
    }
  }
  recovered_ = log_.replay(
      [this](BytesView record) {
        // Record layout: u32 sender ‖ raw message bytes.
        wire::Reader r(record);
        const NodeId from = static_cast<NodeId>(r.get_u32());
        if (!r.ok()) return;
        replay(from, record.subspan(4));
      },
      skip);
  last_snapshot_records_ = skip;
  if (skip > log_.records()) {
    // The snapshot claims records the (externally truncated) log no
    // longer holds. The snapshot state is durable and authoritative —
    // re-anchor its coverage at the log's actual length so the next
    // recovery skips the right amount.
    force_snapshot();
  }
}

bool PersistentServer::restore_from_payload(BytesView payload) {
  wire::Reader r(payload);
  const BytesView image = r.get_bytes_view();
  if (wire::Reader::is_error(image)) return false;
  std::vector<Bytes> replies(cached_replies().size());
  for (auto& rep : replies) {
    rep = r.get_bytes();
    if (!r.ok()) return false;
  }
  if (!r.exhausted()) return false;
  if (!ustor::restore_server_state(core(), image)) return false;
  reply_cache() = std::move(replies);
  return true;
}

Bytes PersistentServer::snapshot_payload() const {
  wire::Writer w;
  w.put_bytes(ustor::encode_server_state(core()));
  for (const Bytes& rep : cached_replies()) w.put_bytes(rep);
  return w.take();
}

bool PersistentServer::force_snapshot() {
  if (snaps_ == nullptr) return false;
  if (!snaps_->save(log_.records(), snapshot_payload())) return false;
  last_snapshot_records_ = log_.records();
  return true;
}

bool PersistentServer::journal(NodeId from, BytesView msg) {
  // Write-ahead: the record is durable before the state changes or any
  // reply leaves. A crash after the append and before the reply leaves
  // the op uncompleted, which the model permits for a crashed server;
  // what recovery must preserve is exactly the processed prefix.
  wire::Writer w(4 + msg.size());
  w.put_u32(static_cast<std::uint32_t>(from));
  w.put_raw(msg);
  return log_.append(w.buffer());  // false: disk failure, refuse to proceed
}

void PersistentServer::checkpoint() {
  if (snaps_ == nullptr || options_.snapshot_every == 0) return;
  if (log_.records() - last_snapshot_records_ >= options_.snapshot_every) {
    force_snapshot();
  }
}

}  // namespace faust::storage
