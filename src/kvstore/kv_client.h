// A multi-writer key-value store layered on FAUST's single-writer
// registers — the same move SUNDR uses to build a filesystem over
// per-principal blocks, and a template for the "variety of additional
// services" the paper's conclusion envisions.
//
// Layout: client C_i serializes its private map key → (value, seq) into
// its own register X_i on every put (seq is C_i's put counter). A get(k)
// reads all n registers and merges: the winning entry for k is the one
// with the lexicographically largest (seq, writer) pair. The merge is
// deterministic, so any two clients with consistent registers agree on
// every key — and FAUST's stability cut therefore applies verbatim to KV
// state: once the underlying register writes are stable, so is the merged
// view. All fail-aware semantics (fail_i, stability, causality) are
// inherited from the FAUST layer for free.
//
// O(change) engineering (PERF.md "O(change) operations"): per-op cost
// tracks the CHANGE SET, not the keyspace. A put patches the single
// affected entry's bytes in the kept canonical encoding (the sorted-key
// format makes splice offsets computable) and, under chunked DATA
// digests, re-hashes only the touched chunks. A reader keeps each
// writer's partition as its verified bytes plus an index of entry
// offsets (PartitionIndex), memoized by the verified digest, so a
// register that returns unchanged content costs no scan at all; a get is
// then one binary search per partition over the snapshot's pinned
// indexes (SnapshotView::find), and only list builds a merged map. The
// differential tests pin published bytes against encode_partition() of
// an in-memory model and merged views against kFlat deployments and
// models.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/cache_client.h"
#include "crypto/chunked_hasher.h"
#include "faust/faust_client.h"

namespace faust::kv {

/// Provenance of a merged snapshot (D8 edge cache): whether any register
/// was served by the cache instead of a FAUST register read, and the
/// freshness horizon of the cache-served portion. A purely engine-read
/// snapshot has cached=false and as_of=0.
struct ReadOrigin {
  /// At least one register came from the edge cache (verified, possibly
  /// stale — see as_of).
  bool cached = false;
  /// Smallest fill-time FAUST timestamp over the cache-served registers:
  /// every cached section was verified by its filler at or after this
  /// timestamp. 0 when nothing was cache-served. Advisory as a freshness
  /// claim (an untrusted cache can under-report age, never forge content).
  Timestamp as_of = 0;
};

/// One key's winning entry, with its provenance.
struct KvEntry {
  std::string value;
  ClientId writer = 0;       // who wrote the winning value
  std::uint64_t seq = 0;     // the writer's put counter at that put
};

inline bool operator==(const KvEntry& a, const KvEntry& b) {
  return a.value == b.value && a.writer == b.writer && a.seq == b.seq;
}

/// One entry of a writer's partition.
struct PartitionEntry {
  std::string key;
  std::string value;
  std::uint64_t seq = 0;

  bool operator==(const PartitionEntry&) const = default;
};

/// A decoded partition: entries in strictly ascending key order. A flat
/// sorted vector, not a tree — the wire format is already canonically
/// ordered, so decoding is an append loop plus an adjacency duplicate
/// check, and lookups are binary searches with no pointer chasing.
using Partition = std::vector<PartitionEntry>;

/// Serialization of a partition (canonical: ascending keys, unique).
Bytes encode_partition(const Partition& p);

/// The one partition validator: one scan that returns the byte offset of
/// every entry, or nullopt on malformed bytes (a count above 2^20, a
/// length past the end), out-of-order or duplicate keys, or trailing
/// garbage — any such buffer is a forgery, not a partition;
/// encode_partition never produces it. Offsets are u32: a register value
/// travels behind a u32 length prefix, so a larger buffer is never one.
std::optional<std::vector<std::uint32_t>> index_partition(BytesView data);

/// Strict decode into strings (tests and models): exactly the buffers
/// index_partition accepts.
std::optional<Partition> decode_partition(BytesView data);

/// A verified partition kept as its canonical bytes plus the offset of
/// each entry, immutable once built. Readers hold these instead of decoded
/// strings: a lookup binary-searches the offsets and compares keys in
/// place, and only what a caller keeps is copied out.
class PartitionIndex {
 public:
  struct Entry {
    std::string_view key;
    std::string_view value;
    std::uint64_t seq = 0;
  };

  /// Indexes `bytes` with index_partition. A buffer it rejects is kept
  /// with no entries: signed content no correct writer produces reads as
  /// an empty partition.
  explicit PartitionIndex(std::shared_ptr<const Bytes> bytes);

  /// No scan: `offsets` are the entry offsets of `bytes`, known because
  /// this client encoded them itself.
  PartitionIndex(std::shared_ptr<const Bytes> bytes, std::vector<std::uint32_t> offsets);

  std::size_t size() const { return offsets_.size(); }
  Entry entry(std::size_t i) const;
  /// Binary search; nullopt when `key` is absent.
  std::optional<Entry> find(std::string_view key) const;
  /// The verified bytes (the kDelta base a cache lookup advertises).
  const std::shared_ptr<const Bytes>& bytes() const { return bytes_; }

 private:
  std::shared_ptr<const Bytes> bytes_;
  std::vector<std::uint32_t> offsets_;
};

/// The n partitions one snapshot pinned ([j-1]; null = ⊥), valid only
/// within the handler it is passed to.
class SnapshotView {
 public:
  SnapshotView(std::vector<std::shared_ptr<const PartitionIndex>> parts,
               std::uint64_t* merged_views)
      : parts_(std::move(parts)), merged_views_(merged_views) {}

  /// The winning entry for `key`, the largest (seq, writer) among the
  /// partitions holding it: one binary search per partition, no
  /// allocation but the winner's value.
  std::optional<KvEntry> find(std::string_view key) const;

  /// The whole merged keyspace (lists). Counted by the owning client's
  /// merged_views().
  std::map<std::string, KvEntry> merge() const;

 private:
  std::vector<std::shared_ptr<const PartitionIndex>> parts_;
  std::uint64_t* merged_views_;
};

/// Map-based conveniences over the same wire format (tests and models).
Bytes encode_map(const std::map<std::string, std::pair<std::string, std::uint64_t>>& m);
std::optional<std::map<std::string, std::pair<std::string, std::uint64_t>>> decode_map(
    BytesView data);

/// Key-value facade over one FaustClient.
class KvClient {
 public:
  using PutHandler = std::function<void(Timestamp)>;
  /// `done(entry, read_ts)`: read_ts is the largest FAUST timestamp among
  /// the observing register reads — the snapshot is *stable* once the
  /// stability cut covers it (see last_snapshot_ts()).
  using GetHandler = std::function<void(std::optional<KvEntry>, Timestamp)>;
  using ListHandler = std::function<void(const std::map<std::string, KvEntry>&, Timestamp)>;
  /// Origin-extended variants: additionally deliver the snapshot's
  /// ReadOrigin (cache provenance + freshness horizon). For a snapshot
  /// with any cache-served register and NO engine read, the delivered
  /// read_ts is the freshness horizon (origin.as_of), not a register-read
  /// timestamp — stability claims only attach to engine-read snapshots.
  using GetExHandler =
      std::function<void(std::optional<KvEntry>, Timestamp, const ReadOrigin&)>;
  using ListExHandler =
      std::function<void(const std::map<std::string, KvEntry>&, Timestamp, const ReadOrigin&)>;

  /// Borrows `faust`; the caller keeps it alive. Multiple KvClients must
  /// not share one FaustClient. The DATA digest mode is read off the
  /// FaustClient's config (it is deployment-wide).
  explicit KvClient(FaustClient& faust);

  /// Upserts key := value in this client's partition and publishes the
  /// whole partition to its register. `done` receives the register
  /// write's FAUST timestamp.
  void put(std::string key, std::string value, PutHandler done = {});

  /// Removes `key` from this client's partition (other writers' entries
  /// for the key survive and may win subsequent merges). When the key is
  /// not in this client's own partition the erase is a no-op: nothing is
  /// re-signed or republished and `done(0)` fires immediately — 0 marks
  /// "no register write was needed", not a failure.
  void erase(const std::string& key, PutHandler done = {});

  /// One batch change with its sequence number pre-drawn by the caller
  /// (api::Store draws tickets at plan time, in program order, so that a
  /// batch's winners are identical on every backend — see store.h).
  /// seq == 0 marks a no-op (an erase of a key the caller knows is
  /// absent): the change is skipped entirely.
  struct SeqChange {
    std::string key;
    std::optional<std::string> value;  // nullopt = erase
    std::uint64_t seq = 0;
  };

  /// Applies every change in order under its pre-drawn sequence number
  /// and publishes the partition ONCE (or not at all when every change is
  /// a no-op — `done(0)` then fires immediately). Conflict winners are
  /// exactly as if the changes had been individual put/erase calls with
  /// those sequence numbers; the intermediate register states are simply
  /// never materialized. This is the batching engine under
  /// api::Store::apply. The caller's sequence numbers must be fresh
  /// (larger than any this client used before); put_seq() advances past
  /// them.
  void apply_with_seqs(const std::vector<SeqChange>& changes, PutHandler done = {});

  /// Merged lookup across all n partitions: n register reads, then one
  /// binary search per partition (no merged map is built).
  void get(const std::string& key, GetHandler done);

  /// Full merged snapshot across all partitions. The map reference is
  /// valid only for the duration of the callback.
  void list(ListHandler done);

  /// Like get/list, with cache control and provenance (see GetExHandler).
  /// `bypass_cache` forces every register through the FAUST engine even
  /// when a cache is attached — the authoritative path differential tests
  /// and oracles pin merged views with.
  void get_ex(const std::string& key, bool bypass_cache, GetExHandler done);
  void list_ex(bool bypass_cache, ListExHandler done);

  /// `done(view, read_ts, origin)`: the partitions one snapshot pinned,
  /// with the same timestamp and provenance rules as GetExHandler. The
  /// view is valid only within the callback.
  using SnapshotHandler = std::function<void(const SnapshotView&, Timestamp, const ReadOrigin&)>;

  /// Collects all n registers — through the cache hop first when one is
  /// attached and not bypassed — and hands `done` the snapshot's view;
  /// get and list are this plus SnapshotView::find / merge.
  void snapshot(SnapshotHandler done, bool bypass_cache = false);

  /// D10 degraded snapshot handler: `view` is null when the cache could
  /// not serve EVERY register (the degraded read is unavailable, not
  /// silently partial); otherwise it is valid only within the callback,
  /// `ts` is the cache freshness horizon and `origin.cached` is always
  /// true.
  using DegradedHandler = std::function<void(const SnapshotView*, Timestamp, const ReadOrigin&)>;

  /// Cache-ONLY merged snapshot for when the home shard is unreachable
  /// (DESIGN.md D10): one allow_stale bulk lookup — expired-but-held
  /// entries serve too — and NO engine fallback. Every register must
  /// resolve from the cache (verified value, unchanged token, or
  /// negative); any miss or rejection fails the whole snapshot with a
  /// null map. Never advances the stability anchor: the result is
  /// stale-but-authentic by contract, flagged via ReadOrigin.
  void snapshot_degraded(DegradedHandler done);

  /// Attaches the edge-cache hop (D8): subsequent snapshots first issue
  /// one bulk verified lookup through `c`, engine-read only the registers
  /// the cache could not serve (miss / verification failure), fill the
  /// cache with what those fallback reads returned, and push-fill this
  /// client's own register on every publish. `c` must outlive this client
  /// (or be detached with nullptr first); it must belong to the same
  /// deployment (same n, signature scheme and digest mode).
  void attach_cache(cache::CacheClient* c) { cache_ = c; }
  cache::CacheClient* attached_cache() const { return cache_; }

  /// This client's own pending partition (local, pre-publication view).
  const Partition& own_partition() const { return own_; }

  /// True iff `key` is in this client's own partition (binary search).
  bool owns_key(std::string_view key) const;

  /// The maintained canonical encoding of own_partition() — what the next
  /// publish ships. Tests pin that the incremental splices keep it equal
  /// to a from-scratch encode_partition().
  BytesView encoded_partition();

  FaustClient& faust() { return faust_; }
  const FaustClient& faust() const { return faust_; }

  /// Coordination hook for the sharded layer: raises the put counter so
  /// the next put/erase uses a sequence number > `seen`. A ShardedKvClient
  /// spreads one logical client over S per-shard KvClients; syncing the
  /// counters before every op makes the (seq, writer) winner of any
  /// cross-writer conflict identical to a single-deployment oracle, where
  /// the counter counts ALL of the client's ops, not just one shard's.
  void advance_seq(std::uint64_t seen) { put_seq_ = std::max(put_seq_, seen); }

  /// Current put counter (the seq the most recent put/erase used).
  std::uint64_t put_seq() const { return put_seq_; }

  /// FAUST timestamp of the most recent completed snapshot (the largest
  /// read timestamp among its n register reads). A merged get/list result
  /// is *stable* once the stability cut covers this timestamp: every read
  /// that observed the merge is then in the linearizable prefix (Def. 5
  /// item 6), and with it the winning writes it saw.
  Timestamp last_snapshot_ts() const { return last_snapshot_ts_; }

  // --- Diagnostics (the O(change) claims in numbers; tests + benches) ----

  /// Publications that patched the kept encoding vs rebuilt it.
  std::uint64_t encode_splices() const { return encode_splices_; }
  std::uint64_t encode_rebuilds() const { return encode_rebuilds_; }
  /// Registers (engine reads and cache sections) whose partition index
  /// came from / missed the digest-keyed memo. Each miss is one
  /// validating scan; this client's own publications enter the memo
  /// without one.
  std::uint64_t decode_memo_hits() const { return decode_memo_hits_; }
  std::uint64_t decode_memo_misses() const { return decode_memo_misses_; }
  /// Merged maps built from this client's snapshots (lists only).
  std::uint64_t merged_views() const { return merged_views_; }
  /// Publications shipped as splice deltas vs full encodings (D6: bytes
  /// per op track the change set once the first full publish seeds the
  /// server's base).
  std::uint64_t publish_deltas() const { return publish_deltas_; }
  std::uint64_t publish_fulls() const { return publish_fulls_; }
  /// Edge-cache effectiveness (all zero until attach_cache).
  /// Registers resolved by the cache (verified full value or unchanged
  /// token or negative) vs read through the FAUST engine.
  std::uint64_t registers_cache_served() const { return regs_cache_served_; }
  std::uint64_t registers_engine_read() const { return regs_engine_read_; }
  /// Snapshots that completed without ANY engine read (every register
  /// cache-served) — the "no shard contact" number the perf gate pins.
  std::uint64_t snapshots_cached() const { return snapshots_cached_; }
  std::uint64_t snapshots_total() const { return snapshots_total_; }
  /// Read-through fill batches and writer push fills sent.
  std::uint64_t cache_fill_batches() const { return cache_fill_batches_; }
  std::uint64_t cache_push_fills() const { return cache_push_fills_; }
  /// D10 degraded (cache-only) snapshots attempted / failed-unavailable.
  std::uint64_t degraded_snapshots() const { return degraded_snapshots_; }
  std::uint64_t degraded_unavailable() const { return degraded_unavailable_; }

 private:
  /// One register's indexed content, keyed by its verified digest x̄_j.
  /// Only values that passed the DATA-signature check (which binds digest
  /// AND writer timestamp) — or this client's own signed publications —
  /// ever produce one, so a hit can only replay VERIFIED byte-identical
  /// content (collision resistance of the digest). The timestamp itself is
  /// NOT part of the key: t_j advances on every op of C_j — reads
  /// included — while the bytes stand still, so keying on it would
  /// invalidate unchanged content (every slot under dummy reads);
  /// freshness of t_j is already enforced by USTOR's line-51 check before
  /// a value ever reaches us.
  struct PartMemo {
    crypto::Hash digest{};
    std::shared_ptr<const PartitionIndex> part;  // null = no memo yet
  };

  /// In-flight snapshot accumulator (get/list may overlap; each op
  /// carries its own, and pins the partition indexes it observed via
  /// shared ownership, so a concurrent snapshot refreshing a memo slot
  /// cannot change what this one reads).
  struct Snapshot {
    std::vector<std::shared_ptr<const PartitionIndex>> parts;  // [j-1]; null = ⊥
    Timestamp max_read_ts = 0;
    SnapshotHandler done;
    // D8 cache bookkeeping: slots already resolved by the verified cache
    // lookup (skipped by the engine fallback), whether the lookup was
    // attempted, the min fill-time stamp over cache-served slots, and the
    // read-through fills owed to the cache for the slots it failed on.
    std::vector<bool> resolved;  // [j-1]
    bool tried_cache = false;
    bool any_cached = false;
    Timestamp cache_as_of = 0;
    std::vector<cache::FillSection> fills;
  };

  bool chunked() const {
    return faust_.config().data_digest == ustor::DigestMode::kChunked;
  }

  /// Applies one change to own_ (and the kept encoding, when valid).
  /// Returns false iff it was an erase of an absent key.
  bool apply_change(const std::string& key, std::optional<std::string> value,
                    std::uint64_t seq);

  /// Re-encodes own_ from scratch (and rebuilds the chunk tree).
  void rebuild_encoding();

  /// Clones the encoding buffer iff a prior publication or snapshot still
  /// shares it; drops the own slot's memo of that buffer first.
  Bytes& mutable_enc();

  void splice_replace(std::size_t idx);
  void splice_insert(std::size_t idx);
  void splice_erase(std::size_t idx, std::size_t old_size);

  /// Appends one wire splice to the pending delta log (no-op while the
  /// log is invalid). `insert` views the freshly patched encoding.
  void log_splice(std::size_t offset, std::size_t erase_len, BytesView insert);

  void publish(PutHandler done);

  /// A memo miss: indexes verified `bytes` of slot `slot` (one scan) and
  /// memoizes the index under `digest`.
  std::shared_ptr<const PartitionIndex> remember(std::size_t slot, const crypto::Hash& digest,
                                                 std::shared_ptr<const Bytes> bytes);

  /// What a cache lookup advertises per register: the digest of each
  /// memo, whose verified bytes are the base of a kDelta section.
  std::vector<cache::CacheClient::Base> cache_bases() const;

  /// Folds a verified cache lookup result into the snapshot (resolving
  /// served / unchanged / negative slots), then engine-reads the rest.
  void consume_cache_result(const std::shared_ptr<Snapshot>& snap,
                            const std::vector<cache::CacheClient::Section>& sections);

  /// The per-slot verification fold shared by the normal and degraded
  /// cache paths (marks resolved slots, updates memos, tracks as_of).
  void fold_cache_sections(const std::shared_ptr<Snapshot>& snap,
                           const std::vector<cache::CacheClient::Section>& sections);

  /// Reads partition j (skipping cache-resolved slots), folds it into the
  /// snapshot, recurses to j+1; finishes past n.
  void read_partition(ClientId j, std::shared_ptr<Snapshot> snap);
  void finish_snapshot(const std::shared_ptr<Snapshot>& snap);

  FaustClient& faust_;

  Partition own_;  // ascending by key
  std::uint64_t put_seq_ = 0;

  // The kept canonical encoding of own_ (valid iff enc_valid_): shared
  // with in-flight publications, cloned on write only when still aliased.
  std::shared_ptr<Bytes> enc_;
  std::vector<std::size_t> enc_off_;  // [i] = byte offset of entry i
  crypto::ChunkedHasher enc_hasher_;  // mirrors *enc_ (chunked mode only)
  bool enc_valid_ = false;

  // D6 delta-publish log: the wire splices applied to *enc_ since the
  // last publication, in order (each relative to the evolving buffer —
  // exactly the form SUBMIT_DELTA ships). Valid only between publishes
  // under deltas; a rebuild_encoding() discards it (offsets lost).
  std::vector<ustor::Splice> pending_splices_;
  bool splice_log_valid_ = false;
  crypto::Hash last_pub_root_{};  // chunk-tree root of the last publication
  std::uint64_t published_ = 0;   // publications so far (first must be full)

  // [j-1]: digest-keyed partition memo. The own slot also follows this
  // client's completed publications, until the next change drops it.
  std::vector<PartMemo> part_memo_;

  Timestamp last_snapshot_ts_ = 0;

  std::uint64_t encode_splices_ = 0;
  std::uint64_t encode_rebuilds_ = 0;
  std::uint64_t decode_memo_hits_ = 0;
  std::uint64_t decode_memo_misses_ = 0;
  std::uint64_t merged_views_ = 0;
  std::uint64_t publish_deltas_ = 0;
  std::uint64_t publish_fulls_ = 0;

  cache::CacheClient* cache_ = nullptr;  // D8 edge-cache hop; null = off
  std::uint64_t regs_cache_served_ = 0;
  std::uint64_t regs_engine_read_ = 0;
  std::uint64_t snapshots_cached_ = 0;
  std::uint64_t snapshots_total_ = 0;
  std::uint64_t cache_fill_batches_ = 0;
  std::uint64_t cache_push_fills_ = 0;
  std::uint64_t degraded_snapshots_ = 0;
  std::uint64_t degraded_unavailable_ = 0;
};

}  // namespace faust::kv
