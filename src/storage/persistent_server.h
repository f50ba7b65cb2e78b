// A crash-durable USTOR server: write-ahead logging of every protocol
// message, periodic integrity-rooted snapshots, and exact state
// reconstruction on restart.
//
// Algorithm 2's state (MEM, SVER, L, P, c) is a deterministic function of
// the sequence of SUBMIT/COMMIT messages processed, so logging that
// sequence before processing (WAL rule) makes the server recoverable: a
// restarted server replays the log through the same message path and ends
// up in byte-identical state — clients notice nothing (storage_test
// proves it: versions keep extending across a crash+recover, no fail_i
// fires).
//
// PersistentServer is ustor::Server with two hooks filled in: the journal
// appends each state-changing message to the WAL before the change (the
// D10 front end decides which: duplicates are not logged, a parked SUBMIT
// is logged when it is dispatched, a piggybacked COMMIT that advances
// SVER[i] gets its own record), and the checkpoint takes snapshots at the
// configured cadence. Recovery replays the records through the same
// dispatch with sending off, so SUBMIT_DELTA is answered by the same
// ServerCore::answer_submit_delta live and in replay (DESIGN.md D6, D7).
//
// Snapshots bound replay time: every `snapshot_every` WAL records the
// full protocol state (ustor/state_codec) plus the per-client reply cache
// is written through SnapshotStore, whose integrity root is the same
// crypto::ChunkedHasher chunk tree the verifiers use. Recovery loads the
// snapshot only if that root re-verifies; a tampered or torn snapshot is
// rejected and recovery falls back to full log replay — slower, never
// wrong (DESIGN.md D7).
//
// Exactly-once resume: a client that reconnects after a server restart
// re-sends its latest COMMIT and its in-flight SUBMIT (ustor::Client::
// resubmit). The server's D10 duplicate check answers a SUBMIT it already
// processed from the reply cache instead of reprocessing it. The cache is
// rebuilt during replay and carried inside snapshots, so dedup survives
// arbitrarily many crashes.
//
// Durability is a server-operator concern; it adds nothing to the trust
// model (a Byzantine server could "recover" into any state it likes —
// and would then be caught exactly as in the adversary tests).
#pragma once

#include <memory>
#include <string>

#include "storage/log_store.h"
#include "storage/snapshot_store.h"
#include "ustor/server.h"

namespace faust::storage {

/// Knobs for the snapshot cadence.
struct DurabilityOptions {
  /// Snapshot after this many new WAL records (0 = log-only, never
  /// snapshot automatically; force_snapshot() still works when a
  /// snapshot path exists).
  std::size_t snapshot_every = 0;
};

/// Correct server with a write-ahead log and verified snapshots.
class PersistentServer : public ustor::Server {
 public:
  /// Log-only mode: opens/creates the WAL at `log_path` and replays any
  /// existing records (crash recovery happens in the constructor).
  PersistentServer(int n, net::Transport& net, std::string log_path,
                   NodeId self = kServerNode);

  /// Directory mode: WAL at `dir`/wal.log, snapshot at `dir`/snapshot.bin.
  /// Recovery prefers a verified snapshot + log-suffix replay; a rejected
  /// snapshot falls back to full replay. `dir` must exist.
  PersistentServer(int n, net::Transport& net, const std::string& dir,
                   DurabilityOptions options, NodeId self = kServerNode);

  /// Writes a snapshot now (no-op without a snapshot path). Returns
  /// false on I/O failure.
  bool force_snapshot();

  /// Records delivered from the log at construction (suffix only when a
  /// snapshot was accepted).
  std::size_t recovered_records() const { return recovered_; }
  /// True iff construction restored state from a verified snapshot.
  bool recovered_from_snapshot() const { return recovered_from_snapshot_; }
  /// Snapshots written through this handle.
  std::uint64_t snapshots_written() const { return snaps_ ? snaps_->saves() : 0; }
  /// Snapshot loads refused for integrity or framing reasons.
  std::uint64_t snapshots_rejected() const { return snaps_ ? snaps_->rejects() : 0; }
  /// WAL records refused at replay because their CRC did not match.
  std::uint64_t checksum_failures() const { return log_.checksum_failures(); }
  /// Total intact WAL records (replayed + appended) through this handle.
  std::uint64_t wal_records() const { return log_.records(); }

 protected:
  /// Appends one record, u32 sender ‖ raw message bytes, and flushes it.
  bool journal(NodeId from, BytesView msg) override;
  /// Snapshots once `snapshot_every` records accumulated since the last.
  void checkpoint() override;

 private:
  void recover();

  /// Snapshot payload: state-codec image ‖ per-client cached replies.
  Bytes snapshot_payload() const;
  bool restore_from_payload(BytesView payload);

  LogStore log_;
  std::unique_ptr<SnapshotStore> snaps_;
  DurabilityOptions options_;
  std::size_t recovered_ = 0;
  bool recovered_from_snapshot_ = false;
  std::uint64_t last_snapshot_records_ = 0;
};

}  // namespace faust::storage
