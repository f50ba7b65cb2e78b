#include "ustor/state_codec.h"

#include <utility>
#include <vector>

#include "wire/encoder.h"

namespace faust::ustor {
namespace {

void put_version(wire::Writer& w, const Version& v) {
  w.put_u32(static_cast<std::uint32_t>(v.V.size()));
  for (const Timestamp t : v.V) w.put_u64(t);
  for (const Digest& d : v.M) {
    w.put_u8(d.present ? 1 : 0);
    if (d.present) w.put_raw(BytesView(d.hash.data(), d.hash.size()));
  }
}

bool get_version(wire::Reader& r, int n, Version* out) {
  const std::uint32_t got = r.get_u32();
  if (!r.ok() || got != static_cast<std::uint32_t>(n)) return false;
  Version v(n);
  for (auto& t : v.V) t = r.get_u64();
  for (auto& d : v.M) {
    const std::uint8_t present = r.get_u8();
    if (present > 1) return false;
    if (present == 1) {
      const BytesView raw = r.get_view(32);
      if (wire::Reader::is_error(raw)) return false;
      d.present = true;
      std::copy(raw.begin(), raw.end(), d.hash.begin());
    }
  }
  if (!r.ok()) return false;
  *out = std::move(v);
  return true;
}

void put_hash(wire::Writer& w, const crypto::Hash& h) {
  w.put_raw(BytesView(h.data(), h.size()));
}

bool get_hash(wire::Reader& r, crypto::Hash* out) {
  const BytesView raw = r.get_view(out->size());
  if (wire::Reader::is_error(raw)) return false;
  std::copy(raw.begin(), raw.end(), out->begin());
  return true;
}

// Delta bookkeeping of one register (D6/D7): the digest state and the
// splice history advertised-base reads are served from.
void put_delta_state(wire::Writer& w, const ServerCore::MemEntry& me) {
  w.put_u8(me.digest_known ? 1 : 0);
  if (me.digest_known) put_hash(w, me.digest);
  w.put_u32(static_cast<std::uint32_t>(me.history.size()));
  for (const DeltaRecord& rec : me.history) {
    put_hash(w, rec.from);
    put_hash(w, rec.to);
    w.put_u64(rec.new_size);
    put_splice_list(w, rec.splices);
  }
}

bool get_delta_state(wire::Reader& r, ServerCore::MemEntry* me) {
  const std::uint8_t known = r.get_u8();
  if (!r.ok() || known > 1) return false;
  me->digest_known = known == 1;
  if (me->digest_known && !get_hash(r, &me->digest)) return false;
  const std::uint32_t records = r.get_u32();
  if (!r.ok() || records > DeltaHistory::kDepth) return false;
  // The live core keeps these implications; an image that breaks them
  // was not written by encode_server_state.
  if (me->digest_known && !me->value.has_value()) return false;
  if (records > 0 && !me->digest_known) return false;
  for (std::uint32_t q = 0; q < records; ++q) {
    crypto::Hash from{};
    crypto::Hash to{};
    if (!get_hash(r, &from) || !get_hash(r, &to)) return false;
    const std::uint64_t new_size = r.get_u64();
    std::vector<SpliceView> splices;
    if (!get_splice_list(r, &splices)) return false;
    // Appending each record against its own `from` keeps the saved chain
    // exactly as it was.
    me->history.append(from, DeltaRecord::copy_of(from, to, new_size, splices));
  }
  return true;
}

// "FST2": format version 2 adds each register's delta state. A version-1
// image is rejected, and recovery falls back to full WAL replay.
constexpr std::uint32_t kMagic = 0x46535432;
// Caps against a corrupted length field forcing a huge allocation; far
// above anything a real deployment produces (L and the schedule are
// pruned/bounded by the protocol's own dynamics, n by kMaxN upstream).
constexpr std::uint32_t kMaxList = 1u << 24;

}  // namespace

Bytes encode_server_state(const ServerCore& core) {
  const int n = core.n();
  wire::Writer w;
  w.put_u32(kMagic);
  w.put_u32(static_cast<std::uint32_t>(n));
  for (ClientId i = 1; i <= n; ++i) {
    const ServerCore::MemEntry& me = core.mem(i);
    w.put_u64(me.t);
    w.put_u8(me.value.has_value() ? 1 : 0);
    if (me.value.has_value()) w.put_bytes(me.value->view());
    w.put_bytes(me.data_sig.view());
    put_delta_state(w, me);
  }
  w.put_u32(static_cast<std::uint32_t>(core.last_committer()));
  for (ClientId i = 1; i <= n; ++i) {
    const SignedVersion& sv = core.sver(i);
    put_version(w, sv.version);
    w.put_bytes(sv.commit_sig);
  }
  const std::vector<InvocationTuple>& L = core.L();
  w.put_u32(static_cast<std::uint32_t>(L.size()));
  for (const InvocationTuple& inv : L) {
    w.put_u32(static_cast<std::uint32_t>(inv.client));
    w.put_u8(static_cast<std::uint8_t>(inv.oc));
    w.put_u32(static_cast<std::uint32_t>(inv.target));
    w.put_bytes(inv.submit_sig);
  }
  for (const Bytes& p : core.P()) w.put_bytes(p);
  const std::vector<ScheduledOp>& sched = core.schedule();
  w.put_u32(static_cast<std::uint32_t>(sched.size()));
  for (const ScheduledOp& op : sched) {
    w.put_u32(static_cast<std::uint32_t>(op.client));
    w.put_u8(static_cast<std::uint8_t>(op.oc));
    w.put_u32(static_cast<std::uint32_t>(op.target));
    w.put_u64(op.t);
  }
  return w.take();
}

bool restore_server_state(ServerCore& core, BytesView image) {
  wire::Reader r(image);
  if (r.get_u32() != kMagic) return false;
  const std::uint32_t n = r.get_u32();
  if (!r.ok() || n != static_cast<std::uint32_t>(core.n())) return false;

  std::vector<ServerCore::MemEntry> mem(n);
  for (auto& me : mem) {
    me.t = r.get_u64();
    const std::uint8_t present = r.get_u8();
    if (present > 1) return false;
    if (present == 1) {
      const BytesView v = r.get_bytes_view();
      if (wire::Reader::is_error(v)) return false;
      me.value = SharedBytes::copy_of(v);
    }
    const BytesView sig = r.get_bytes_view();
    if (wire::Reader::is_error(sig)) return false;
    me.data_sig = SharedBytes::copy_of(sig);
    if (!get_delta_state(r, &me)) return false;
  }

  const std::uint32_t c = r.get_u32();
  if (!r.ok() || c < 1 || c > n) return false;

  std::vector<SignedVersion> sver(n);
  for (auto& sv : sver) {
    if (!get_version(r, static_cast<int>(n), &sv.version)) return false;
    sv.commit_sig = r.get_bytes();
    if (!r.ok()) return false;
  }

  // Counts are also capped by what the rest of the image can hold (an L
  // entry takes at least 13 bytes, a schedule entry 17), so a corrupted
  // count is refused before it sizes an allocation.
  const std::uint32_t l_count = r.get_u32();
  if (!r.ok() || l_count > kMaxList || l_count > r.remaining() / 13) return false;
  std::vector<InvocationTuple> concurrent(l_count);
  for (auto& inv : concurrent) {
    inv.client = static_cast<ClientId>(r.get_u32());
    const std::uint8_t oc = r.get_u8();
    if (oc > 1) return false;
    inv.oc = static_cast<OpCode>(oc);
    inv.target = static_cast<ClientId>(r.get_u32());
    inv.submit_sig = r.get_bytes();
    if (!r.ok() || inv.client < 1 || inv.client > n) return false;
  }

  std::vector<Bytes> proofs(n);
  for (auto& p : proofs) {
    p = r.get_bytes();
    if (!r.ok()) return false;
  }

  const std::uint32_t s_count = r.get_u32();
  if (!r.ok() || s_count > kMaxList || s_count > r.remaining() / 17) return false;
  std::vector<ScheduledOp> schedule(s_count);
  for (auto& op : schedule) {
    op.client = static_cast<ClientId>(r.get_u32());
    const std::uint8_t oc = r.get_u8();
    if (oc > 1) return false;
    op.oc = static_cast<OpCode>(oc);
    op.target = static_cast<ClientId>(r.get_u32());
    op.t = r.get_u64();
    if (!r.ok() || op.client < 1 || op.client > n) return false;
  }

  if (!r.ok() || !r.exhausted()) return false;
  core.restore(std::move(mem), static_cast<ClientId>(c), std::move(sver),
               std::move(concurrent), std::move(proofs), std::move(schedule));
  return true;
}

}  // namespace faust::ustor
