#include "cache/cache_node.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace faust::cache {

CacheNode::CacheNode(NodeId self, net::Transport& net, exec::Executor& exec, int n,
                     CacheOptions opts)
    : exec_(exec),
      self_(self),
      net_(net),
      n_(n),
      opts_(opts),
      entries_(static_cast<std::size_t>(n)) {
  FAUST_CHECK(n >= 1);
  net_.attach(self_, *this);
}

CacheNode::~CacheNode() { net_.detach(self_); }

bool CacheNode::holds(ClientId j) const {
  if (j < 1 || j > n_) return false;
  const auto& e = entries_[static_cast<std::size_t>(j - 1)];
  return e.has_value() && !entry_expired(*e);
}

bool CacheNode::entry_expired(const Entry& e) const {
  return opts_.ttl > 0 && exec_.now() > e.filled_at + opts_.ttl;
}

void CacheNode::corrupt_reply(NodeId /*to*/, std::vector<OutSection>& /*sections*/) {}

void CacheNode::on_message(NodeId from, BytesView msg) {
  if (msg.empty()) {
    ++malformed_;
    return;
  }
  switch (static_cast<MsgType>(msg[0])) {
    case MsgType::kGet: {
      const auto m = decode_get(msg);
      if (!m.has_value()) {
        ++malformed_;
        return;
      }
      handle_get(from, *m);
      return;
    }
    case MsgType::kFill: {
      const auto m = decode_fill_view(msg);
      if (!m.has_value()) {
        ++malformed_;
        return;
      }
      handle_fill(*m);
      return;
    }
    default:
      // A reply addressed to a cache, or an unknown tag: a confused or
      // malicious peer. Drop — the cache has nothing to fail.
      ++malformed_;
      return;
  }
}

void CacheNode::handle_get(NodeId from, const GetMessage& m) {
  ++lookups_;
  std::vector<OutSection> sections(static_cast<std::size_t>(n_));
  const std::size_t asked = std::min(m.bases.size(), sections.size());
  for (std::size_t slot = 0; slot < sections.size(); ++slot) {
    OutSection& out = sections[slot];
    std::optional<Entry>& e = entries_[slot];
    const bool expired = e.has_value() && entry_expired(*e);
    if (expired && !m.allow_stale) {
      ++expirations_;
      arena_used_ -= e->charge();
      e.reset();
    }
    if (!e.has_value()) {
      ++misses_;
      continue;  // kMiss
    }
    // D10 degraded lookup: an allow_stale get serves the expired entry
    // as held — as_of still truthfully bounds its freshness — but does
    // NOT refresh its TTL; normal lookups will still expire it.
    if (expired) ++stale_served_;
    e->last_used = ++lru_clock_;
    if (!e->present) {
      ++negatives_served_;
      out.status = SectionStatus::kNegative;
      out.as_of = e->as_of;
      continue;
    }
    const std::optional<crypto::Hash>& base = slot < asked ? m.bases[slot] : std::nullopt;
    if (base.has_value() && *base == e->digest) {
      ++unchanged_;
      out.status = SectionStatus::kUnchanged;
    } else if (base.has_value() &&
               e->history.plan(e->digest, e->value->size(), *base, &out.delta) ==
                   ustor::ReadServing::kDelta) {
      ++delta_hits_;
      out.status = SectionStatus::kDelta;
    } else {
      ++hits_;
      out.status = SectionStatus::kHit;
      out.value = e->value;
    }
    out.writer_ts = e->writer_ts;
    out.digest = e->digest;
    out.sig = e->sig;
    out.as_of = e->as_of;
  }
  corrupt_reply(from, sections);
  net_.send(self_, from, encode_reply(m.req_id, sections));
}

void CacheNode::handle_fill(const FillMessageView& m) {
  if (!accept_fills()) return;
  for (const FillSectionView& s : m.sections) {
    if (s.writer < 1 || s.writer > n_) {
      ++fills_rejected_;
      continue;
    }
    std::optional<Entry>& e = slot(s.writer);
    if (e.has_value() && entry_expired(*e)) {
      ++expirations_;
      arena_used_ -= e->charge();
      e.reset();
    }
    if (!s.present) {
      // Negative fill: never displaces a present entry (registers are
      // write-once-direction: ⊥ → written, never back).
      if (e.has_value() && e->present) {
        ++fills_rejected_;
        continue;
      }
      if (e.has_value() && s.as_of <= e->as_of) {
        ++fills_rejected_;
        continue;
      }
      Entry fresh;
      fresh.present = false;
      fresh.as_of = s.as_of;
      fresh.filled_at = exec_.now();
      fresh.last_used = ++lru_clock_;
      if (e.has_value()) {
        ++fills_refreshed_;
      } else {
        ++fills_accepted_;
      }
      e = std::move(fresh);
      continue;
    }
    if (s.delta) {
      handle_delta_fill(s, e);
      continue;
    }
    if (e.has_value() && e->present) {
      if (s.writer_ts < e->writer_ts) {
        ++fills_rejected_;  // an older (delayed) fill never regresses
        continue;
      }
      if (s.writer_ts == e->writer_ts) {
        if (s.digest != e->digest || s.value.size() > opts_.arena_bytes) {
          // Conflicting content at the same timestamp: unverifiable from
          // here. Keep what we have; readers reject whichever side fails
          // verification.
          ++fills_rejected_;
          continue;
        }
        // Re-observation of the held content: refresh TTL + freshness.
        // Honest fills of one (writer_ts, digest) carry identical bytes,
        // so different ones mean a side was tampered with, and the held
        // side is the one some reader may just have rejected: take the
        // fill's bytes, and drop the history chained onto the old ones.
        if (!std::equal(s.value.begin(), s.value.end(), e->value->begin(), e->value->end())) {
          arena_used_ -= e->charge();
          e->value = std::make_shared<const Bytes>(s.value.begin(), s.value.end());
          e->history.clear();
          arena_used_ += e->charge();
          ++fills_replaced_;
        } else {
          ++fills_refreshed_;
        }
        e->filled_at = exec_.now();
        e->as_of = std::max(e->as_of, s.as_of);
        e->last_used = ++lru_clock_;
        enforce_arena();
        continue;
      }
    }
    if (s.value.size() > opts_.arena_bytes) {
      ++fills_rejected_;  // could never fit, even alone
      continue;
    }
    Entry fresh;
    fresh.present = true;
    fresh.writer_ts = s.writer_ts;
    fresh.digest = s.digest;
    fresh.sig = Bytes(s.sig.begin(), s.sig.end());
    fresh.value = std::make_shared<const Bytes>(s.value.begin(), s.value.end());
    fresh.as_of = s.as_of;
    fresh.filled_at = exec_.now();
    fresh.last_used = ++lru_clock_;
    if (e.has_value()) arena_used_ -= e->charge();
    arena_used_ += fresh.charge();
    e = std::move(fresh);
    ++fills_accepted_;
    enforce_arena();
  }
}

void CacheNode::handle_delta_fill(const FillSectionView& s, std::optional<Entry>& e) {
  const bool present = e.has_value() && e->present;
  if (present && s.writer_ts <= e->writer_ts) {
    ++fills_rejected_;  // an older (delayed) fill never regresses
    return;
  }
  if (present && e->digest == s.base) {
    auto value = ustor::apply_delta(BytesView(*e->value), s.splices, s.new_size);
    if (!value.has_value() || value->size() > opts_.arena_bytes) {
      ++fills_rejected_;  // out-of-bounds splices: the slot stays as it was
      return;
    }
    arena_used_ -= e->charge();
    e->history.append(e->digest,
                      ustor::DeltaRecord::copy_of(s.base, s.digest, s.new_size, s.splices));
    e->writer_ts = s.writer_ts;
    e->digest = s.digest;
    e->sig.assign(s.sig.begin(), s.sig.end());
    e->value = std::make_shared<const Bytes>(std::move(*value));
    e->as_of = s.as_of;
    e->filled_at = exec_.now();
    e->last_used = ++lru_clock_;
    arena_used_ += e->charge();
    ++fills_accepted_;
    ++delta_fills_;
    enforce_arena();
    return;
  }
  if (!e.has_value()) {
    ++fills_rejected_;  // nothing to carry forward
    return;
  }
  // A newer write the slot cannot be carried to (it holds another digest,
  // or a negative): what it holds is stale. Drop it; the next lookup
  // misses, and the engine read behind that miss refills the slot in full.
  arena_used_ -= e->charge();
  e.reset();
  ++slots_dropped_;
}

void CacheNode::enforce_arena() {
  while (arena_used_ > opts_.arena_bytes) {
    std::size_t victim = entries_.size();
    std::uint64_t oldest = 0;
    for (std::size_t slot = 0; slot < entries_.size(); ++slot) {
      const std::optional<Entry>& e = entries_[slot];
      if (!e.has_value() || !e->present) continue;  // negatives are free
      if (victim == entries_.size() || e->last_used < oldest) {
        victim = slot;
        oldest = e->last_used;
      }
    }
    if (victim == entries_.size()) return;  // nothing chargeable left
    arena_used_ -= entries_[victim]->charge();
    entries_[victim].reset();
    ++evictions_;
  }
}

}  // namespace faust::cache
