#include "kvstore/kv_client.h"

#include <cstring>
#include <memory>
#include <utility>

#include "common/check.h"
#include "wire/encoder.h"

namespace faust::kv {
namespace {

// Entry wire layout (matching wire::Writer: LE integers, length-prefixed
// byte strings): u32 klen | key | u32 vlen | value | u64 seq. The buffer
// opens with a u32 entry count. Fixed per-entry overhead:
constexpr std::size_t kEntryFixed = 4 + 4 + 8;
constexpr std::size_t kHeaderSize = 4;

std::size_t entry_size(const PartitionEntry& e) {
  return kEntryFixed + e.key.size() + e.value.size();
}

void write_u32_at(Bytes& b, std::size_t off, std::uint32_t v) {
  b[off] = static_cast<std::uint8_t>(v);
  b[off + 1] = static_cast<std::uint8_t>(v >> 8);
  b[off + 2] = static_cast<std::uint8_t>(v >> 16);
  b[off + 3] = static_cast<std::uint8_t>(v >> 24);
}

void write_u64_at(Bytes& b, std::size_t off, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) b[off + static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(v >> (8 * k));
}

/// Writes one entry's bytes at `off` (the space must already exist).
void write_entry_at(Bytes& b, std::size_t off, const PartitionEntry& e) {
  write_u32_at(b, off, static_cast<std::uint32_t>(e.key.size()));
  off += 4;
  std::memcpy(b.data() + off, e.key.data(), e.key.size());
  off += e.key.size();
  write_u32_at(b, off, static_cast<std::uint32_t>(e.value.size()));
  off += 4;
  std::memcpy(b.data() + off, e.value.data(), e.value.size());
  off += e.value.size();
  write_u64_at(b, off, e.seq);
}

std::uint32_t load_u32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 | std::uint32_t{p[2]} << 16 |
         std::uint32_t{p[3]} << 24;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  return std::uint64_t{load_u32(p)} | std::uint64_t{load_u32(p + 4)} << 32;
}

/// Entry at `p`, an offset the validator produced (no bounds checks).
PartitionIndex::Entry entry_at(const std::uint8_t* p) {
  const std::uint32_t klen = load_u32(p);
  const std::uint32_t vlen = load_u32(p + 4 + klen);
  const std::uint8_t* value = p + 8 + klen;
  return PartitionIndex::Entry{std::string_view(reinterpret_cast<const char*>(p + 4), klen),
                               std::string_view(reinterpret_cast<const char*>(value), vlen),
                               load_u64(value + vlen)};
}

std::string_view as_chars(BytesView b) {
  return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
}

Partition::iterator lower_bound_key(Partition& p, std::string_view key) {
  return std::lower_bound(p.begin(), p.end(), key,
                          [](const PartitionEntry& e, std::string_view k) { return e.key < k; });
}

}  // namespace

Bytes encode_partition(const Partition& p) {
  std::size_t total = kHeaderSize;
  for (const PartitionEntry& e : p) total += entry_size(e);
  Bytes out;
  out.resize(total);
  write_u32_at(out, 0, static_cast<std::uint32_t>(p.size()));
  std::size_t off = kHeaderSize;
  for (const PartitionEntry& e : p) {
    write_entry_at(out, off, e);
    off += entry_size(e);
  }
  return out;
}

std::optional<std::vector<std::uint32_t>> index_partition(BytesView data) {
  if (data.size() > UINT32_MAX) return std::nullopt;
  wire::Reader r(data);
  const std::uint32_t count = r.get_u32();
  if (!r.ok() || count > (1u << 20)) return std::nullopt;
  std::vector<std::uint32_t> offsets;
  // Reserve against the structural bound, not the untrusted header: every
  // real entry occupies at least kEntryFixed bytes, so a short forged
  // buffer claiming 2^20 entries cannot force a large allocation.
  offsets.reserve(std::min<std::size_t>(count, r.remaining() / kEntryFixed + 1));
  std::string_view prev;
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::size_t off = data.size() - r.remaining();
    const std::string_view key = as_chars(r.get_bytes_view());
    r.get_bytes_view();  // value
    r.get_u64();         // seq
    if (!r.ok()) return std::nullopt;
    // Canonical form: encode_partition emits keys in strictly ascending
    // order, so any other order (or a duplicate) is a forgery.
    if (k > 0 && key <= prev) return std::nullopt;
    prev = key;
    offsets.push_back(static_cast<std::uint32_t>(off));
  }
  if (!r.exhausted()) return std::nullopt;
  return offsets;
}

std::optional<Partition> decode_partition(BytesView data) {
  const auto offsets = index_partition(data);
  if (!offsets.has_value()) return std::nullopt;
  Partition p;
  p.reserve(offsets->size());
  for (const std::uint32_t off : *offsets) {
    const PartitionIndex::Entry e = entry_at(data.data() + off);
    p.push_back(PartitionEntry{std::string(e.key), std::string(e.value), e.seq});
  }
  return p;
}

PartitionIndex::PartitionIndex(std::shared_ptr<const Bytes> bytes) : bytes_(std::move(bytes)) {
  if (auto offsets = index_partition(BytesView(*bytes_))) offsets_ = std::move(*offsets);
}

PartitionIndex::PartitionIndex(std::shared_ptr<const Bytes> bytes,
                               std::vector<std::uint32_t> offsets)
    : bytes_(std::move(bytes)), offsets_(std::move(offsets)) {}

PartitionIndex::Entry PartitionIndex::entry(std::size_t i) const {
  return entry_at(bytes_->data() + offsets_[i]);
}

std::optional<PartitionIndex::Entry> PartitionIndex::find(std::string_view key) const {
  std::size_t lo = 0, hi = offsets_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::uint8_t* p = bytes_->data() + offsets_[mid];
    const std::string_view k(reinterpret_cast<const char*>(p + 4), load_u32(p));
    if (k < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == offsets_.size()) return std::nullopt;
  const Entry e = entry(lo);
  if (e.key != key) return std::nullopt;
  return e;
}

std::optional<KvEntry> SnapshotView::find(std::string_view key) const {
  std::optional<PartitionIndex::Entry> best;
  ClientId best_writer = 0;
  for (std::size_t slot = 0; slot < parts_.size(); ++slot) {
    if (!parts_[slot]) continue;
    const auto e = parts_[slot]->find(key);
    // Winner: lexicographically largest (seq, writer); slots ascend, so a
    // seq tie goes to the later one.
    if (e.has_value() && (!best.has_value() || e->seq >= best->seq)) {
      best = e;
      best_writer = static_cast<ClientId>(slot + 1);
    }
  }
  if (!best.has_value()) return std::nullopt;
  return KvEntry{std::string(best->value), best_writer, best->seq};
}

std::map<std::string, KvEntry> SnapshotView::merge() const {
  ++*merged_views_;
  std::map<std::string, KvEntry> merged;
  for (std::size_t slot = 0; slot < parts_.size(); ++slot) {
    if (!parts_[slot]) continue;
    const ClientId j = static_cast<ClientId>(slot + 1);
    const PartitionIndex& part = *parts_[slot];
    for (std::size_t i = 0; i < part.size(); ++i) {
      const PartitionIndex::Entry e = part.entry(i);
      auto [it, inserted] = merged.try_emplace(std::string(e.key));
      // Winner: lexicographically largest (seq, writer).
      if (inserted || e.seq > it->second.seq ||
          (e.seq == it->second.seq && j > it->second.writer)) {
        it->second = KvEntry{std::string(e.value), j, e.seq};
      }
    }
  }
  return merged;
}

Bytes encode_map(const std::map<std::string, std::pair<std::string, std::uint64_t>>& m) {
  Partition p;
  p.reserve(m.size());
  for (const auto& [key, entry] : m) p.push_back(PartitionEntry{key, entry.first, entry.second});
  return encode_partition(p);
}

std::optional<std::map<std::string, std::pair<std::string, std::uint64_t>>> decode_map(
    BytesView data) {
  const auto p = decode_partition(data);
  if (!p.has_value()) return std::nullopt;
  std::map<std::string, std::pair<std::string, std::uint64_t>> m;
  for (const PartitionEntry& e : *p) {
    m.emplace_hint(m.end(), e.key, std::pair{e.value, e.seq});
  }
  return m;
}

KvClient::KvClient(FaustClient& faust)
    : faust_(faust), part_memo_(static_cast<std::size_t>(faust.n())) {}

bool KvClient::owns_key(std::string_view key) const {
  const auto it = std::lower_bound(
      own_.begin(), own_.end(), key,
      [](const PartitionEntry& e, std::string_view k) { return e.key < k; });
  return it != own_.end() && it->key == key;
}

BytesView KvClient::encoded_partition() {
  if (!enc_valid_) rebuild_encoding();
  return BytesView(*enc_);
}

Bytes& KvClient::mutable_enc() {
  // The own slot's memo shares the last published buffer. This change
  // supersedes it (the next publication re-seeds the memo), so release
  // it rather than keep a copy of the buffer alive for it.
  PartMemo& own = part_memo_[static_cast<std::size_t>(faust_.id() - 1)];
  if (own.part && own.part->bytes() == enc_) own = PartMemo{};
  // An in-flight publication or snapshot may still share the buffer
  // (FaustClient queues ops); clone before patching so its bytes stay
  // frozen.
  if (enc_.use_count() > 1) enc_ = std::make_shared<Bytes>(*enc_);
  return *enc_;
}

void KvClient::log_splice(std::size_t offset, std::size_t erase_len, BytesView insert) {
  if (!splice_log_valid_) return;
  pending_splices_.push_back(
      ustor::Splice{offset, erase_len, Bytes(insert.begin(), insert.end())});
}

void KvClient::rebuild_encoding() {
  enc_ = std::make_shared<Bytes>(encode_partition(own_));
  // Splice offsets referred to the discarded buffer; the next publish
  // ships the full encoding and reseeds the log.
  pending_splices_.clear();
  splice_log_valid_ = false;
  enc_off_.clear();
  enc_off_.reserve(own_.size());
  std::size_t off = kHeaderSize;
  for (const PartitionEntry& e : own_) {
    enc_off_.push_back(off);
    off += entry_size(e);
  }
  if (chunked()) enc_hasher_.reset(BytesView(*enc_));
  enc_valid_ = true;
  ++encode_rebuilds_;
}

void KvClient::splice_replace(std::size_t idx) {
  Bytes& b = mutable_enc();
  const std::size_t off = enc_off_[idx];
  const std::size_t old_end = idx + 1 < enc_off_.size() ? enc_off_[idx + 1] : b.size();
  const std::size_t old_sz = old_end - off;
  const std::size_t new_sz = entry_size(own_[idx]);
  if (new_sz > old_sz) {
    b.insert(b.begin() + static_cast<std::ptrdiff_t>(off), new_sz - old_sz, 0);
  } else if (new_sz < old_sz) {
    b.erase(b.begin() + static_cast<std::ptrdiff_t>(off),
            b.begin() + static_cast<std::ptrdiff_t>(off + (old_sz - new_sz)));
  }
  write_entry_at(b, off, own_[idx]);
  if (new_sz != old_sz) {
    const std::ptrdiff_t delta =
        static_cast<std::ptrdiff_t>(new_sz) - static_cast<std::ptrdiff_t>(old_sz);
    for (std::size_t i = idx + 1; i < enc_off_.size(); ++i) {
      enc_off_[i] = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(enc_off_[i]) + delta);
    }
  }
  if (chunked()) {
    // Same-size edits dirty only the entry's chunks; a resize shifts the
    // whole tail (the tree handles the length change internally).
    enc_hasher_.update(BytesView(b),
                       crypto::ChunkedHasher::ByteRange{off, new_sz == old_sz ? off + new_sz
                                                                              : b.size()});
  }
  log_splice(off, old_sz, BytesView(b.data() + off, new_sz));
  ++encode_splices_;
}

void KvClient::splice_insert(std::size_t idx) {
  Bytes& b = mutable_enc();
  const std::size_t off = idx < enc_off_.size() ? enc_off_[idx] : b.size();
  const std::size_t sz = entry_size(own_[idx]);
  b.insert(b.begin() + static_cast<std::ptrdiff_t>(off), sz, 0);
  write_entry_at(b, off, own_[idx]);
  write_u32_at(b, 0, static_cast<std::uint32_t>(own_.size()));
  enc_off_.insert(enc_off_.begin() + static_cast<std::ptrdiff_t>(idx), off);
  for (std::size_t i = idx + 1; i < enc_off_.size(); ++i) enc_off_[i] += sz;
  if (chunked()) {
    enc_hasher_.update(BytesView(b), {crypto::ChunkedHasher::ByteRange{0, kHeaderSize},
                                      crypto::ChunkedHasher::ByteRange{off, b.size()}});
  }
  log_splice(off, 0, BytesView(b.data() + off, sz));
  log_splice(0, kHeaderSize, BytesView(b.data(), kHeaderSize));
  ++encode_splices_;
}

void KvClient::splice_erase(std::size_t idx, std::size_t old_size) {
  Bytes& b = mutable_enc();
  const std::size_t off = enc_off_[idx];
  b.erase(b.begin() + static_cast<std::ptrdiff_t>(off),
          b.begin() + static_cast<std::ptrdiff_t>(off + old_size));
  write_u32_at(b, 0, static_cast<std::uint32_t>(own_.size()));
  enc_off_.erase(enc_off_.begin() + static_cast<std::ptrdiff_t>(idx));
  for (std::size_t i = idx; i < enc_off_.size(); ++i) enc_off_[i] -= old_size;
  if (chunked()) {
    enc_hasher_.update(BytesView(b), {crypto::ChunkedHasher::ByteRange{0, kHeaderSize},
                                      crypto::ChunkedHasher::ByteRange{off, b.size()}});
  }
  log_splice(off, old_size, BytesView());
  log_splice(0, kHeaderSize, BytesView(b.data(), kHeaderSize));
  ++encode_splices_;
}

bool KvClient::apply_change(const std::string& key, std::optional<std::string> value,
                            std::uint64_t seq) {
  auto it = lower_bound_key(own_, key);
  const bool found = it != own_.end() && it->key == key;
  const std::size_t idx = static_cast<std::size_t>(it - own_.begin());
  if (value.has_value()) {
    if (found) {
      it->value = std::move(*value);
      it->seq = seq;
      if (enc_valid_) splice_replace(idx);
    } else {
      own_.insert(it, PartitionEntry{key, std::move(*value), seq});
      if (enc_valid_) splice_insert(idx);
    }
    return true;
  }
  if (!found) return false;
  const std::size_t old_size = entry_size(*it);
  own_.erase(it);
  if (enc_valid_) splice_erase(idx, old_size);
  return true;
}

void KvClient::put(std::string key, std::string value, PutHandler done) {
  apply_change(key, std::move(value), ++put_seq_);
  publish(std::move(done));
}

void KvClient::erase(const std::string& key, PutHandler done) {
  if (!owns_key(key)) {
    // The key was never in this client's partition: republishing would
    // re-sign the identical map for nothing. Complete immediately with 0
    // ("no register write was needed").
    if (done) done(0);
    return;
  }
  ++put_seq_;  // keeps (seq, writer) strictly advancing across publications
  apply_change(key, std::nullopt, 0);
  publish(std::move(done));
}

void KvClient::apply_with_seqs(const std::vector<SeqChange>& changes, PutHandler done) {
  bool any = false;
  for (const auto& change : changes) {
    if (change.seq == 0) continue;  // caller-marked no-op
    apply_change(change.key, change.value, change.seq);
    put_seq_ = std::max(put_seq_, change.seq);
    any = true;
  }
  if (!any) {
    if (done) done(0);
    return;
  }
  publish(std::move(done));
}

void KvClient::publish(PutHandler done) {
  if (!enc_valid_) rebuild_encoding();
  // x̄ of the published bytes: the maintained chunk-tree root, or the
  // flat hash the write would otherwise compute itself.
  const crypto::Hash digest =
      chunked() ? enc_hasher_.root()
                : ustor::value_digest(ustor::DigestMode::kFlat, BytesView(*enc_));

  // D6: ship the logged splices instead of the encoding when that is
  // actually smaller. The first publication is always full (it seeds the
  // server's base and the verifiers' chunk trees); after that, per-op
  // bytes track the change set.
  bool delta = false;
  if (chunked() && published_ > 0 && splice_log_valid_ && !pending_splices_.empty()) {
    std::size_t delta_bytes = 0;
    for (const ustor::Splice& s : pending_splices_) delta_bytes += 20 + s.insert.size();
    delta = delta_bytes < enc_->size();
  }

  // Once the register write completes, the own slot's memo follows it:
  // this client signed exactly these bytes under `digest`, so they are
  // what any verified read of its register with that digest returns, and
  // their offsets are already known (no scan). The buffer is the shared
  // encoding, pinned here: a splice while the write is in flight clones
  // it, and one after the memo took it drops the memo (mutable_enc).
  std::vector<std::uint32_t> offsets(enc_off_.begin(), enc_off_.end());
  auto published = std::make_shared<const PartitionIndex>(enc_, std::move(offsets));

  // D8 writer push fill: hand the cache this publication's self-certifying
  // tuple — the exact wire δ (faust_.last_write_sig()) over the published
  // content, in the publication's own form. A delta publication's fill
  // carries its SUBMIT_DELTA body (base root, splices, new root and size);
  // a full one carries the published bytes.
  std::optional<cache::FillSection> fill;
  if (cache_ != nullptr) {
    fill.emplace();
    fill->writer = faust_.id();
    fill->present = true;
    fill->digest = digest;
    fill->delta = delta;
    if (delta) {
      fill->base = last_pub_root_;
      fill->new_size = enc_->size();
      fill->splices = pending_splices_;
    }
  }
  PutHandler complete = [this, digest, delta, published = std::move(published),
                         fill = std::move(fill), done = std::move(done)](Timestamp t) mutable {
    if (t != 0) {
      if (fill.has_value() && cache_ != nullptr) {
        fill->writer_ts = t;
        const BytesView sig = faust_.last_write_sig();
        fill->sig.assign(sig.begin(), sig.end());
        if (!delta) fill->value = *published->bytes();
        fill->as_of = t;
        ++cache_push_fills_;
        std::vector<cache::FillSection> fills;
        fills.push_back(std::move(*fill));
        cache_->fill(std::move(fills));
      }
      part_memo_[static_cast<std::size_t>(faust_.id() - 1)] =
          PartMemo{digest, std::move(published)};
    }
    if (done) done(t);
  };

  ++published_;
  if (delta) {
    ++publish_deltas_;
    std::vector<ustor::Splice> splices = std::move(pending_splices_);
    pending_splices_.clear();
    const crypto::Hash base = last_pub_root_;
    last_pub_root_ = digest;
    faust_.write_delta(base, digest, enc_->size(), std::move(splices), std::move(complete));
    return;
  }

  ++publish_fulls_;
  pending_splices_.clear();
  // From a chunked full publication on, incremental splices can be
  // logged against a server-known base.
  splice_log_valid_ = chunked();
  last_pub_root_ = digest;
  // The buffer itself is shared with the write (zero-copy down to the
  // wire encoding); the next splice clones it iff it is still referenced.
  faust_.write_shared(enc_, digest, std::move(complete));
}

void KvClient::snapshot(SnapshotHandler done, bool bypass_cache) {
  // Read all n partitions sequentially (the FAUST client runs one op at a
  // time anyway), folding each result as it arrives.
  auto snap = std::make_shared<Snapshot>();
  const std::size_t n = static_cast<std::size_t>(faust_.n());
  snap->parts.resize(n);
  snap->resolved.assign(n, false);
  snap->done = std::move(done);
  ++snapshots_total_;
  if (cache_ != nullptr && !bypass_cache) {
    // D8: one bulk verified lookup first; the engine fallback below only
    // touches the registers the cache could not serve. Bases advertise
    // this client's own verified memos, enabling the O(1) "unchanged"
    // token and arming the bogus-negative rejection.
    snap->tried_cache = true;
    cache_->lookup(cache_bases(), [this, snap](const cache::CacheClient::Result& res) {
      consume_cache_result(snap, res.sections);
    });
    return;
  }
  read_partition(1, std::move(snap));
}

std::shared_ptr<const PartitionIndex> KvClient::remember(std::size_t slot,
                                                         const crypto::Hash& digest,
                                                         std::shared_ptr<const Bytes> bytes) {
  ++decode_memo_misses_;
  auto part = std::make_shared<const PartitionIndex>(std::move(bytes));
  part_memo_[slot] = PartMemo{digest, part};
  return part;
}

std::vector<cache::CacheClient::Base> KvClient::cache_bases() const {
  std::vector<cache::CacheClient::Base> bases(part_memo_.size());
  for (std::size_t slot = 0; slot < bases.size(); ++slot) {
    const PartMemo& memo = part_memo_[slot];
    if (!memo.part) continue;
    // The base bytes of a kDelta section are the memo's own verified
    // bytes, pinned by the lookup until its reply arrives.
    bases[slot] = cache::CacheClient::Base{
        true, memo.digest, [bytes = memo.part->bytes()] { return *bytes; }};
  }
  return bases;
}

void KvClient::consume_cache_result(const std::shared_ptr<Snapshot>& snap,
                                    const std::vector<cache::CacheClient::Section>& sections) {
  fold_cache_sections(snap, sections);
  read_partition(1, snap);
}

void KvClient::fold_cache_sections(const std::shared_ptr<Snapshot>& snap,
                                   const std::vector<cache::CacheClient::Section>& sections) {
  const std::size_t n = static_cast<std::size_t>(faust_.n());
  FAUST_CHECK(sections.size() == n);  // CacheClient always delivers n
  const auto fold_as_of = [&](Timestamp as_of) {
    snap->cache_as_of = snap->any_cached ? std::min(snap->cache_as_of, as_of) : as_of;
    snap->any_cached = true;
  };
  for (std::size_t slot = 0; slot < n; ++slot) {
    const cache::CacheClient::Section& sec = sections[slot];
    switch (sec.outcome) {
      case cache::Outcome::kServed: {
        // Verified full value: same trust level as a register read that
        // passed the DATA check, so it feeds the memo too. A value rebuilt
        // from a kDelta section is already an owned buffer.
        snap->parts[slot] =
            remember(slot, sec.digest,
                     sec.rebuilt ? sec.rebuilt
                                 : std::make_shared<const Bytes>(sec.value.begin(),
                                                                 sec.value.end()));
        snap->resolved[slot] = true;
        ++regs_cache_served_;
        fold_as_of(sec.as_of);
        break;
      }
      case cache::Outcome::kUnchanged: {
        // "Digest equals your advertised base": replay the memo the base
        // came from. The memo can only have moved on if a concurrent
        // snapshot refreshed it meanwhile — then fall through to an
        // engine read rather than serve content we no longer hold.
        const PartMemo& memo = part_memo_[slot];
        if (memo.part && memo.digest == sec.digest) {
          snap->parts[slot] = memo.part;
          snap->resolved[slot] = true;
          ++regs_cache_served_;
          ++decode_memo_hits_;
          fold_as_of(sec.as_of);
        }
        break;
      }
      case cache::Outcome::kNegative: {
        // Plausible never-written claim (the CacheClient already rejected
        // it if our own memo refutes it): the slot merges as ⊥.
        snap->resolved[slot] = true;
        ++regs_cache_served_;
        fold_as_of(sec.as_of);
        break;
      }
      case cache::Outcome::kMiss:
      case cache::Outcome::kRejected:
        break;  // engine fallback reads this slot
    }
  }
}

void KvClient::snapshot_degraded(DegradedHandler done) {
  if (cache_ == nullptr) {
    // No cache tier wired: a degraded read has nowhere to go.
    done(nullptr, 0, ReadOrigin{});
    return;
  }
  auto snap = std::make_shared<Snapshot>();
  const std::size_t n = static_cast<std::size_t>(faust_.n());
  snap->parts.resize(n);
  snap->resolved.assign(n, false);
  snap->tried_cache = true;
  ++snapshots_total_;
  ++degraded_snapshots_;
  cache_->lookup(
      cache_bases(),
      [this, snap, done = std::move(done)](const cache::CacheClient::Result& res) mutable {
        fold_cache_sections(snap, res.sections);
        for (std::size_t slot = 0; slot < snap->resolved.size(); ++slot) {
          if (!snap->resolved[slot]) {
            // A register the cache could not serve: the snapshot would be
            // silently partial — fail it whole instead (kUnavailable up
            // the stack), never mix stale slots with fabricated ⊥s.
            ++degraded_unavailable_;
            done(nullptr, 0, ReadOrigin{});
            return;
          }
        }
        snap->done = [done = std::move(done)](const SnapshotView& view, Timestamp ts,
                                              const ReadOrigin& origin) {
          done(&view, ts, origin);
        };
        // No engine read ran (max_read_ts == 0, no fills owed): the
        // shared finisher reports ts = the cache freshness horizon and
        // leaves the stability anchor untouched.
        finish_snapshot(snap);
      },
      /*allow_stale=*/true);
}

void KvClient::read_partition(ClientId j, std::shared_ptr<Snapshot> snap) {
  while (j <= faust_.n() &&
         snap->resolved[static_cast<std::size_t>(j - 1)]) {
    ++j;  // cache-resolved: no engine read, no fill owed
  }
  if (j > faust_.n()) {
    finish_snapshot(snap);
    return;
  }
  faust_.read_ex(j, [this, j, snap](const ustor::Value& v, Timestamp t, const ReadMeta& meta) {
    snap->max_read_ts = std::max(snap->max_read_ts, t);
    ++regs_engine_read_;
    if (snap->tried_cache) {
      // Read-through fill: hand the cache exactly what this verified
      // fallback read returned — the self-certifying tuple for a present
      // register, a negative entry for ⊥ (both stamped with the read's
      // timestamp as the freshness horizon).
      cache::FillSection fill;
      fill.writer = j;
      fill.as_of = t;
      if (v.has_value()) {
        fill.present = true;
        fill.writer_ts = meta.writer_ts;
        fill.digest = meta.value_digest;
        fill.sig.assign(meta.data_sig.begin(), meta.data_sig.end());
        fill.value = *v;
      }
      snap->fills.push_back(std::move(fill));
    }
    if (v.has_value()) {
      const std::size_t slot = static_cast<std::size_t>(j - 1);
      const PartMemo& memo = part_memo_[slot];
      if (memo.part && memo.digest == meta.value_digest) {
        // The verified digest matches content indexed before (digest
        // collision resistance): replay it. A tampered value never gets
        // here — it already failed the DATA-signature check inside the
        // FAUST/USTOR layer and halted the client.
        ++decode_memo_hits_;
        snap->parts[slot] = memo.part;
      } else {
        snap->parts[slot] = remember(slot, meta.value_digest, std::make_shared<const Bytes>(*v));
      }
    }
    read_partition(j + 1, snap);
  });
}

void KvClient::finish_snapshot(const std::shared_ptr<Snapshot>& snap) {
  if (cache_ != nullptr && snap->tried_cache && !snap->fills.empty()) {
    ++cache_fill_batches_;
    cache_->fill(std::move(snap->fills));
  }
  ReadOrigin origin;
  origin.cached = snap->any_cached;
  origin.as_of = snap->any_cached ? snap->cache_as_of : 0;
  // Engine-read snapshots report the largest register-read timestamp (the
  // stability anchor); a zero-engine-read snapshot reports the cache
  // freshness horizon instead (see GetExHandler).
  const Timestamp ts = snap->max_read_ts > 0 ? snap->max_read_ts : origin.as_of;
  if (snap->tried_cache && snap->max_read_ts == 0) ++snapshots_cached_;
  snap->done(SnapshotView(std::move(snap->parts), &merged_views_), ts, origin);
}

void KvClient::get(const std::string& key, GetHandler done) {
  get_ex(key, /*bypass_cache=*/false,
         [done = std::move(done)](std::optional<KvEntry> entry, Timestamp ts,
                                  const ReadOrigin&) { done(std::move(entry), ts); });
}

void KvClient::list(ListHandler done) {
  list_ex(/*bypass_cache=*/false,
          [done = std::move(done)](const std::map<std::string, KvEntry>& merged, Timestamp ts,
                                   const ReadOrigin&) { done(merged, ts); });
}

void KvClient::get_ex(const std::string& key, bool bypass_cache, GetExHandler done) {
  snapshot(
      [key, done = std::move(done)](const SnapshotView& view, Timestamp ts,
                                    const ReadOrigin& origin) {
        done(view.find(key), ts, origin);
      },
      bypass_cache);
}

void KvClient::list_ex(bool bypass_cache, ListExHandler done) {
  snapshot(
      [done = std::move(done)](const SnapshotView& view, Timestamp ts,
                               const ReadOrigin& origin) { done(view.merge(), ts, origin); },
      bypass_cache);
}

}  // namespace faust::kv
