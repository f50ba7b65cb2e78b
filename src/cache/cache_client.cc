#include "cache/cache_client.h"

#include <utility>

#include "common/check.h"
#include "ustor/messages.h"

namespace faust::cache {

CacheClient::CacheClient(ClientId id, NodeId cache_node, int n,
                         std::shared_ptr<const crypto::SignatureScheme> sigs,
                         ustor::DigestMode digest_mode, net::Transport& net,
                         exec::Executor& exec, exec::Time lookup_timeout)
    : id_(id),
      self_(cache_endpoint(id)),
      cache_node_(cache_node),
      n_(n),
      sigs_(std::make_shared<crypto::VerifyCache>(std::move(sigs))),
      digest_mode_(digest_mode),
      net_(net),
      exec_(exec),
      lookup_timeout_(lookup_timeout) {
  FAUST_CHECK(id >= 1 && n >= 1);
  net_.attach(self_, *this);
}

CacheClient::~CacheClient() {
  for (auto& [req, p] : pending_) {
    if (p.timer != 0) exec_.cancel(p.timer);
  }
  net_.detach(self_);
}

void CacheClient::lookup(std::vector<Base> bases, LookupHandler done, bool allow_stale) {
  FAUST_CHECK(bases.size() == static_cast<std::size_t>(n_));
  const std::uint64_t req = next_req_++;
  GetMessage m;
  m.req_id = req;
  m.allow_stale = allow_stale;
  m.bases.resize(bases.size());
  for (std::size_t slot = 0; slot < bases.size(); ++slot) {
    if (bases[slot].present) m.bases[slot] = bases[slot].digest;
  }
  Pending p;
  p.bases = std::move(bases);
  p.done = std::move(done);
  if (lookup_timeout_ > 0) {
    p.timer = exec_.after(lookup_timeout_, [this, req] { complete_missed(req); });
  }
  pending_.emplace(req, std::move(p));
  ++lookups_sent_;
  net_.send(self_, cache_node_, encode_get(m));
}

void CacheClient::fill(std::vector<FillSection> sections) {
  if (sections.empty()) return;
  ++fills_sent_;
  net_.send(self_, cache_node_, encode_fill(sections));
}

void CacheClient::complete_missed(std::uint64_t req_id) {
  const auto it = pending_.find(req_id);
  if (it == pending_.end()) return;
  Pending p = std::move(it->second);
  pending_.erase(it);
  ++timeouts_;
  missed_ += static_cast<std::uint64_t>(n_);
  Result r;
  r.timed_out = true;
  r.sections.resize(static_cast<std::size_t>(n_));
  p.done(r);
}

CacheClient::Section CacheClient::verify_section(ClientId j, const ReplySectionView& raw,
                                                 const Base& base) {
  Section out;
  switch (raw.status) {
    case SectionStatus::kMiss:
      ++missed_;
      return out;  // kMiss
    case SectionStatus::kNegative:
      // Unverifiable by construction (⊥ is unsigned). Registers never
      // revert to ⊥, so our own verified knowledge refutes a negative for
      // any register we have seen written — the Byzantine "bogus
      // negative" — and we reject it. Otherwise ⊥ is consistent with
      // everything we know; at worst the claim is STALE (the register was
      // written after the filler looked), the same staleness class as any
      // cached data, bounded by as_of.
      if (base.present) {
        ++rejected_;
        out.outcome = Outcome::kRejected;
        return out;
      }
      ++negative_;
      out.outcome = Outcome::kNegative;
      out.as_of = raw.as_of;
      return out;
    case SectionStatus::kUnchanged: {
      // The cache claims X_j still equals the base we advertised. Only
      // meaningful if we DID advertise one, and only acceptable with the
      // writer's authentic binding of (writer_ts, that exact digest).
      if (!base.present || raw.digest != base.digest || raw.writer_ts == 0 ||
          !sigs_->verify(j, ustor::data_payload(raw.writer_ts, base.digest), raw.sig)) {
        ++rejected_;
        out.outcome = Outcome::kRejected;
        return out;
      }
      ++unchanged_;
      out.outcome = Outcome::kUnchanged;
      out.writer_ts = raw.writer_ts;
      out.digest = base.digest;
      out.as_of = raw.as_of;
      return out;
    }
    case SectionStatus::kDelta: {
      // Splice runs from the base we advertised: rebuild the value from
      // our own bytes of that base, then check it exactly like a full
      // hit — the check a shard REPLY_DELTA goes through.
      if (!base.present || !base.bytes || raw.base != base.digest || raw.writer_ts == 0) {
        ++rejected_;
        out.outcome = Outcome::kRejected;
        return out;
      }
      const Bytes held = base.bytes();
      auto value = ustor::apply_delta(BytesView(held), raw.splices, raw.new_size);
      const crypto::Hash digest =
          value.has_value()
              ? ustor::value_digest(digest_mode_, std::optional<BytesView>(BytesView(*value)))
              : crypto::Hash{};
      if (!value.has_value() || digest != raw.digest ||
          !sigs_->verify(j, ustor::data_payload(raw.writer_ts, digest), raw.sig)) {
        ++rejected_;
        out.outcome = Outcome::kRejected;
        return out;
      }
      ++delta_;
      out.outcome = Outcome::kServed;
      out.writer_ts = raw.writer_ts;
      out.digest = digest;
      out.rebuilt = std::make_shared<const Bytes>(std::move(*value));
      out.value = BytesView(*out.rebuilt);
      out.as_of = raw.as_of;
      return out;
    }
    case SectionStatus::kHit: {
      // Full tuple: recompute the digest of the served bytes under the
      // deployment's mode and check the writer's DATA signature over it —
      // byte-for-byte the check a shard REPLY's value goes through.
      const crypto::Hash digest =
          ustor::value_digest(digest_mode_, std::optional<BytesView>(raw.value));
      if (raw.writer_ts == 0 || digest != raw.digest ||
          !sigs_->verify(j, ustor::data_payload(raw.writer_ts, digest), raw.sig)) {
        ++rejected_;
        out.outcome = Outcome::kRejected;
        return out;
      }
      ++served_;
      out.outcome = Outcome::kServed;
      out.writer_ts = raw.writer_ts;
      out.digest = digest;
      out.value = raw.value;
      out.as_of = raw.as_of;
      return out;
    }
  }
  ++rejected_;
  out.outcome = Outcome::kRejected;
  return out;
}

void CacheClient::on_message(NodeId from, BytesView msg) {
  if (from != cache_node_) return;  // not our cache: drop
  const auto reply = decode_reply_view(msg);
  if (!reply.has_value()) {
    // Garbage from the cache. No request id to correlate — drop and let
    // the affected lookup's timer score it a miss. Nothing to fail: the
    // cache is untrusted by design.
    ++malformed_;
    return;
  }
  const auto it = pending_.find(reply->req_id);
  if (it == pending_.end()) return;  // late, duplicate, or unsolicited
  if (reply->sections.size() != static_cast<std::size_t>(n_)) {
    // Structurally wrong for our deployment: reject wholesale (every
    // section), complete so the caller falls back immediately.
    Pending p = std::move(it->second);
    pending_.erase(it);
    if (p.timer != 0) exec_.cancel(p.timer);
    ++malformed_;
    rejected_ += static_cast<std::uint64_t>(n_);
    Result r;
    r.sections.resize(static_cast<std::size_t>(n_));
    for (Section& s : r.sections) s.outcome = Outcome::kRejected;
    p.done(r);
    return;
  }
  Pending p = std::move(it->second);
  pending_.erase(it);
  if (p.timer != 0) exec_.cancel(p.timer);
  Result r;
  r.sections.resize(static_cast<std::size_t>(n_));
  for (std::size_t slot = 0; slot < r.sections.size(); ++slot) {
    r.sections[slot] = verify_section(static_cast<ClientId>(slot + 1),
                                      reply->sections[slot], p.bases[slot]);
  }
  // The bases pin the caller's base content (Base::bytes); release it
  // before the caller replaces that content with what was just served.
  p.bases.clear();
  p.done(r);
}

}  // namespace faust::cache
