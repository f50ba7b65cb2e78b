// Wire format of the edge-cache tier (DESIGN.md D8).
//
// Three message types on tags 6–8 (disjoint from ustor::MsgType, sharing
// the net::Network / rt::ThreadBus per-type byte-accounting buckets):
//
//   CACHE_GET   client → cache   one bulk lookup for all n register
//                                partitions of a shard, each slot
//                                optionally advertising the digest of the
//                                content the client already holds verified
//                                (the D6 "unchanged" idea applied to the
//                                cache hop);
//   CACHE_REPLY cache → client   one section per register: a full hit
//                                (value bytes), an O(1) "unchanged" token
//                                (digest matched the advertised base, no
//                                bytes), a delta (splice runs that carry
//                                the advertised base to the held value),
//                                a negative entry (the cache believes the
//                                register was never written), or a miss;
//   CACHE_FILL  client → cache   verified read-through / writer push
//                                fills: (writer_ts, digest, DATA
//                                signature, value) tuples the cache may
//                                store and re-serve, or — a writer's push
//                                after a SUBMIT_DELTA — the same tuple with
//                                that SUBMIT_DELTA's base root and splices
//                                in place of the value. Fire-and-forget.
//
// Both delta forms speak the D6 splice wire (ustor::put_splice_list /
// get_splice_list): a delta fill ships exactly the splices the writer's
// SUBMIT_DELTA did, and a delta section concatenates the runs the node's
// ustor::DeltaHistory plans from the reader's advertised base.
//
// Trust model: the cache verifies NOTHING (it holds no keys) and clients
// trust NOTHING the cache says — every served section is re-verified
// against the writer's DATA signature before use (cache_client.h), and
// both sides decode defensively (wire::Reader hardening), since either
// peer may be Byzantine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "crypto/sha256.h"
#include "ustor/messages.h"

namespace faust::cache {

/// Node id of a deployment's cache node, and the per-client endpoint ids
/// the cache-facing client halves attach under. Far outside the protocol
/// range (server = 0, clients 1..n) so the spaces can never collide.
inline constexpr NodeId kCacheNodeId = 1'000'000;
inline constexpr NodeId cache_endpoint(ClientId i) { return kCacheNodeId + i; }

/// Leading wire tags (bucketed by the transports exactly like
/// ustor::MsgType; values chosen from the free range below kTypeBuckets).
enum class MsgType : std::uint8_t {
  kGet = 6,
  kReply = 7,
  kFill = 8,
};

/// Per-register outcome in a CACHE_REPLY.
enum class SectionStatus : std::uint8_t {
  kMiss = 0,       // nothing cached (or expired)
  kHit = 1,        // full (writer_ts, digest, sig, value) tuple
  kUnchanged = 2,  // digest equals the advertised base; no bytes shipped
  kNegative = 3,   // cache believes the register was never written
  kDelta = 4,      // splice runs from the advertised base to the held value
};

/// CACHE_GET: one lookup covering registers 1..n.
struct GetMessage {
  std::uint64_t req_id = 0;
  /// D10 degraded mode: serve expired-but-held entries too (without
  /// refreshing their TTL). Set only by clients whose home shard is
  /// unreachable — stale-but-authentic data, truthfully bounded by each
  /// section's as_of, beats no data. Normal lookups leave this false and
  /// expired entries count as misses.
  bool allow_stale = false;
  /// [j-1]: digest of the verified content of X_j the client already
  /// holds decoded (enables the unchanged fast path), or nullopt.
  std::vector<std::optional<crypto::Hash>> bases;
};

/// One register's section of a CACHE_REPLY (zero-copy views into the
/// message buffer; valid only during the on_message call).
struct ReplySectionView {
  SectionStatus status = SectionStatus::kMiss;
  Timestamp writer_ts = 0;   // hit/unchanged/delta
  crypto::Hash digest{};     // hit/delta: x̄ of the value; unchanged: echoed base
  BytesView sig;             // hit/unchanged/delta: writer's DATA signature
  BytesView value;           // hit only: the partition bytes
  crypto::Hash base{};       // delta: the advertised base, echoed
  std::uint64_t new_size = 0;             // delta: size of the rebuilt value
  std::vector<ustor::SpliceView> splices; // delta: the runs, concatenated
  /// FAUST timestamp of the observing read (or write) the filler verified
  /// this content at — the freshness horizon a cached read surfaces.
  /// Advisory: an untrusted cache can lie here, which makes the data at
  /// worst stale-but-authentic (the signature still binds ts and bytes).
  Timestamp as_of = 0;
};

struct ReplyMessageView {
  std::uint64_t req_id = 0;
  std::vector<ReplySectionView> sections;  // [j-1]
};

/// One register's tuple in a CACHE_FILL. A present fill carries either
/// the whole value or, when `delta` is set, the splices that carry the
/// value whose root is `base` to the one whose root is `digest` (of
/// `new_size` bytes); `value` then stays empty.
struct FillSection {
  ClientId writer = 0;
  bool present = false;  // false = negative entry (register never written)
  Timestamp writer_ts = 0;
  crypto::Hash digest{};
  Bytes sig;
  Bytes value;
  Timestamp as_of = 0;
  bool delta = false;
  crypto::Hash base{};
  std::uint64_t new_size = 0;
  std::vector<ustor::Splice> splices;
};

struct FillSectionView {
  ClientId writer = 0;
  bool present = false;
  Timestamp writer_ts = 0;
  crypto::Hash digest{};
  BytesView sig;
  BytesView value;
  Timestamp as_of = 0;
  bool delta = false;
  crypto::Hash base{};
  std::uint64_t new_size = 0;
  std::vector<ustor::SpliceView> splices;
};

struct FillMessageView {
  std::vector<FillSectionView> sections;
};

/// Owned section the cache node hands to encode_reply (values alias the
/// cache's stored buffers via shared ownership).
struct OutSection {
  SectionStatus status = SectionStatus::kMiss;
  Timestamp writer_ts = 0;
  crypto::Hash digest{};
  Bytes sig;
  std::shared_ptr<const Bytes> value;  // hit only
  Timestamp as_of = 0;
  /// Delta only: the echoed base (base_digest), the value's size and the
  /// runs, which borrow the node's history until encode_reply returns.
  ustor::ReadDeltaPlan delta;
};

Bytes encode_get(const GetMessage& m);
Bytes encode_reply(std::uint64_t req_id, const std::vector<OutSection>& sections);
Bytes encode_fill(const std::vector<FillSection>& sections);

/// Hardened decoders: nullopt on any malformed input (wrong tag, short
/// buffer, out-of-range counts, trailing garbage). Views alias `data`.
std::optional<GetMessage> decode_get(BytesView data);
std::optional<ReplyMessageView> decode_reply_view(BytesView data);
std::optional<FillMessageView> decode_fill_view(BytesView data);

}  // namespace faust::cache
