// Canonical serialization of a ServerCore's protocol state — the payload
// of the durability layer's snapshots (storage/snapshot_store.h).
//
// The image covers Algorithm 2's state: MEM (timestamp, value, DATA
// signature per register), the last-committer pointer c, SVER, the
// concurrent-operations list L, the proof vector P, and the schedule log
// (the recovery oracle the tests compare). It also carries each
// register's D6 delta bookkeeping (chunk-tree digest, splice history):
// the reply to an advertised-base read depends on it, so without it a
// log suffix replayed over a restored core would re-encode a REPLY_DELTA
// of the live run as a full REPLY, and the reply cache would hold bytes
// the client never saw (DESIGN.md D7).
//
// Encoding goes through wire::Writer/Reader (DESIGN.md D3), so an image
// has a unique byte representation; decode is defensive (false on any
// malformed input) because a snapshot read from disk is untrusted bytes —
// the Byzantine-disk tests feed tampered images through this decoder.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "ustor/server.h"

namespace faust::ustor {

/// Serializes `core`'s full protocol state (see file comment).
Bytes encode_server_state(const ServerCore& core);

/// Decodes an image produced by encode_server_state and installs it into
/// `core` via ServerCore::restore. Returns false (leaving `core`
/// untouched) on any malformed input or an n mismatch.
bool restore_server_state(ServerCore& core, BytesView image);

}  // namespace faust::ustor
