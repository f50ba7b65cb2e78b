#include "ustor/messages.h"

#include <algorithm>
#include <cstring>

#include "wire/encoder.h"

namespace faust::ustor {
namespace {

// Per-field helpers. Each decode helper leaves `r` in the error state on
// malformed input; callers check r.ok() once at the end.  Decoding is
// zero-copy throughout: byte fields come out as views into the source
// buffer, and the owned decode_* entry points deep-copy at the end.

void put_value(wire::Writer& w, const ValueView& v) {
  w.put_u8(v.has_value() ? 1 : 0);
  if (v.has_value()) w.put_bytes(*v);
}

ValueView as_view(const Value& v) {
  if (!v.has_value()) return std::nullopt;
  return BytesView(*v);
}

ValueView as_view(const SharedValue& v) {
  if (!v.has_value()) return std::nullopt;
  return v->view();
}

// Presence flags are encoded as exactly 0 or 1; any other value is
// rejected so that decodable messages have a unique encoding (decision
// D3) — the wire-fuzz suite asserts decode∘encode is the identity on
// every accepted buffer.
ValueView get_value(wire::Reader& r) {
  const std::uint8_t present = r.get_u8();
  if (present > 1) r.poison();
  if (present != 1) return std::nullopt;
  return r.get_bytes_view();
}

void put_digest(wire::Writer& w, const Digest& d) {
  w.put_u8(d.present ? 1 : 0);
  if (d.present) w.put_raw(BytesView(d.hash.data(), d.hash.size()));
}

Digest get_digest(wire::Reader& r) {
  const std::uint8_t present = r.get_u8();
  if (present > 1) r.poison();
  if (present != 1) return Digest::bottom();
  const BytesView raw = r.get_view(32);
  Digest d;
  if (raw.size() == 32) {
    d.present = true;
    std::copy(raw.begin(), raw.end(), d.hash.begin());
  }
  return d;
}

void put_version(wire::Writer& w, const Version& v) {
  w.put_u32(static_cast<std::uint32_t>(v.V.size()));
  for (const Timestamp t : v.V) w.put_u64(t);
  for (const Digest& d : v.M) put_digest(w, d);
}

// Hard cap on decoded vector lengths: a Byzantine server must not be able
// to make a client allocate unbounded memory from a short message.
constexpr std::uint32_t kMaxN = 1 << 16;

Version get_version(wire::Reader& r) {
  const std::uint32_t n = r.get_u32();
  if (n > kMaxN) {
    r.poison();
    return Version();
  }
  Version v(static_cast<int>(n));
  for (auto& t : v.V) t = r.get_u64();
  for (auto& d : v.M) d = get_digest(r);
  return v;
}

void put_signed_version(wire::Writer& w, const SignedVersion& sv) {
  put_version(w, sv.version);
  w.put_bytes(sv.commit_sig);
}

SignedVersionView get_signed_version(wire::Reader& r) {
  SignedVersionView sv;
  sv.version = get_version(r);
  sv.commit_sig = r.get_bytes_view();
  return sv;
}

void put_invocation(wire::Writer& w, const InvocationTuple& inv) {
  w.put_u32(static_cast<std::uint32_t>(inv.client));
  w.put_u8(static_cast<std::uint8_t>(inv.oc));
  w.put_u32(static_cast<std::uint32_t>(inv.target));
  w.put_bytes(inv.submit_sig);
}

InvocationTupleView get_invocation(wire::Reader& r) {
  InvocationTupleView inv;
  inv.client = static_cast<ClientId>(r.get_u32());
  const std::uint8_t oc = r.get_u8();
  if (oc > 1) r.poison();  // unknown opcode
  inv.oc = static_cast<OpCode>(oc);
  inv.target = static_cast<ClientId>(r.get_u32());
  inv.submit_sig = r.get_bytes_view();
  return inv;
}

// D10 piggybacked-COMMIT tail of SUBMIT / SUBMIT_DELTA: present-flag,
// then the CommitMessage body (version, φ, ψ). Written only when a
// commit rides along, so the absent case stays byte-identical to the
// pre-D10 encoding — the tail is recognized purely by bytes remaining
// after the DATA signature.
void put_commit_tail(wire::Writer& w, const CommitMessage& cm) {
  w.put_u8(1);
  put_version(w, cm.version);
  w.put_bytes(cm.commit_sig);
  w.put_bytes(cm.proof_sig);
}

std::size_t commit_tail_size(const CommitMessage& cm) {
  return 1 + encoded_version_size(cm.version) + 4 + cm.commit_sig.size() + 4 +
         cm.proof_sig.size();
}

// Parses the optional commit tail into view fields; call with the reader
// positioned right after the DATA signature. Poisons on a malformed tail.
template <typename SubmitView>
void get_commit_tail(wire::Reader& r, SubmitView& m) {
  if (!r.ok() || r.exhausted()) return;
  if (r.get_u8() != 1) {
    r.poison();
    return;
  }
  m.has_commit = true;
  m.commit_version = get_version(r);
  m.commit_sig = r.get_bytes_view();
  m.proof_sig = r.get_bytes_view();
}

// Materializes the view tail back into the owned optional.
template <typename SubmitView>
std::optional<CommitMessage> owned_commit(const SubmitView& v) {
  if (!v.has_commit) return std::nullopt;
  CommitMessage cm;
  cm.version = v.commit_version;
  cm.commit_sig.assign(v.commit_sig.begin(), v.commit_sig.end());
  cm.proof_sig.assign(v.proof_sig.begin(), v.proof_sig.end());
  return cm;
}

// Exact encoded sizes of the composite fields (mirror the put_* helpers).

std::size_t value_size(const ValueView& v) {
  return 1 + (v.has_value() ? 4 + v->size() : 0);
}

std::size_t version_size(const Version& v) { return encoded_version_size(v); }

std::size_t signed_version_size(const SignedVersion& sv) {
  return version_size(sv.version) + 4 + sv.commit_sig.size();
}

std::size_t invocation_size(const InvocationTuple& inv) {
  return 4 + 1 + 4 + 4 + inv.submit_sig.size();
}

// Delta-message helpers. Hashes here are always-present raw 32-byte
// fields (unlike the optional Digest), so they carry no presence flag.

void put_hash(wire::Writer& w, const crypto::Hash& h) {
  w.put_raw(BytesView(h.data(), h.size()));
}

crypto::Hash get_hash(wire::Reader& r) {
  crypto::Hash h{};
  const BytesView raw = r.get_view(32);
  if (raw.size() == 32) std::copy(raw.begin(), raw.end(), h.begin());
  return h;
}

std::size_t splice_size(std::size_t insert_len) { return 8 + 8 + 4 + insert_len; }

void put_splice(wire::Writer& w, const Splice& s) {
  w.put_u64(s.offset);
  w.put_u64(s.erase_len);
  w.put_bytes(BytesView(s.insert));
}

SpliceView get_splice(wire::Reader& r) {
  SpliceView s;
  s.offset = r.get_u64();
  s.erase_len = r.get_u64();
  s.insert = r.get_bytes_view();
  return s;
}

// Splices apply sequentially: each offset refers to the buffer as left by
// the previous splice, which is exactly how KvClient's incremental encoder
// produced them. Every bound is checked against the evolving buffer, so a
// Byzantine splice list can never read or write out of range — it just
// yields nullopt and the receiver falls back to the full-value path.
//
// The buffer is reserved once and each splice is one in-place replace: a
// same-length splice is a single copy, any other one a single tail move.
template <typename S>
std::optional<Bytes> apply_delta_impl(BytesView base, std::span<const S> splices,
                                      std::uint64_t expected_size) {
  // No splice list can grow the base by more than its inserts, so a
  // larger claimed size fails without reserving anything for it.
  std::uint64_t reachable = base.size();
  for (const S& s : splices) reachable += s.insert.size();
  if (expected_size > reachable) return std::nullopt;
  Bytes buf;
  buf.reserve(std::max<std::size_t>(base.size(), static_cast<std::size_t>(expected_size)));
  buf.assign(base.begin(), base.end());
  for (const S& s : splices) {
    const std::size_t size = buf.size();
    if (s.offset > size || s.erase_len > size - s.offset) return std::nullopt;
    const std::size_t at = static_cast<std::size_t>(s.offset);
    const std::size_t tail = at + static_cast<std::size_t>(s.erase_len);
    const std::size_t insert_end = at + s.insert.size();
    if (insert_end > tail) buf.resize(size + (insert_end - tail));
    if (insert_end != tail) std::memmove(buf.data() + insert_end, buf.data() + tail, size - tail);
    if (insert_end < tail) buf.resize(size - (tail - insert_end));
    if (!s.insert.empty()) std::memcpy(buf.data() + at, s.insert.data(), s.insert.size());
  }
  if (buf.size() != expected_size) return std::nullopt;
  return buf;
}

/// The read part of a REPLY, flattened to views so that ReplyMessage
/// (owned) and ReplySnapshot (shared slices) encode byte-identically.
struct ReadPartView {
  const SignedVersion* writer = nullptr;  // null = no read payload
  Timestamp tj = 0;
  ValueView value;
  BytesView data_sig;
};

ReadPartView read_part(const std::optional<ReadPayload>& read) {
  if (!read.has_value()) return {};
  return ReadPartView{&read->writer, read->tj, as_view(read->value), BytesView(read->data_sig)};
}

ReadPartView read_part(const std::optional<ReadPayloadShared>& read) {
  if (!read.has_value()) return {};
  return ReadPartView{&read->writer, read->tj, as_view(read->value), read->data_sig.view()};
}

std::size_t reply_body_size(const SignedVersion& last, const ReadPartView& read,
                            const std::vector<InvocationTuple>& L, std::size_t l_count,
                            const std::vector<Bytes>& P) {
  std::size_t sz = 1 + 4 + signed_version_size(last) + 1;
  if (read.writer != nullptr) {
    sz += signed_version_size(*read.writer) + 8 + value_size(read.value) + 4 +
          read.data_sig.size();
  }
  sz += 4;
  for (std::size_t q = 0; q < l_count; ++q) sz += invocation_size(L[q]);
  sz += 4;
  for (const Bytes& p : P) sz += 4 + p.size();
  return sz;
}

/// Shared REPLY encoding body, so ReplyMessage and ReplySnapshot produce
/// byte-identical output. Only the first `l_count` entries of L belong to
/// this reply (a snapshot's shared vector may have grown since).
void encode_reply_body(wire::Writer& w, ClientId c, const SignedVersion& last,
                       const ReadPartView& read, const std::vector<InvocationTuple>& L,
                       std::size_t l_count, const std::vector<Bytes>& P) {
  w.put_u8(static_cast<std::uint8_t>(MsgType::kReply));
  w.put_u32(static_cast<std::uint32_t>(c));
  put_signed_version(w, last);
  w.put_u8(read.writer != nullptr ? 1 : 0);
  if (read.writer != nullptr) {
    put_signed_version(w, *read.writer);
    w.put_u64(read.tj);
    put_value(w, read.value);
    w.put_bytes(read.data_sig);
  }
  w.put_u32(static_cast<std::uint32_t>(l_count));
  for (std::size_t q = 0; q < l_count; ++q) put_invocation(w, L[q]);
  w.put_u32(static_cast<std::uint32_t>(P.size()));
  for (const Bytes& p : P) w.put_bytes(p);
}

/// Clamp a snapshot's logical length to the vector it aliases (a
/// hand-built snapshot could disagree; never read past the end).
std::size_t snapshot_l_count(const ReplySnapshot& m) {
  return m.L ? std::min(m.l_count, m.L->size()) : 0;
}

}  // namespace

std::size_t splice_list_size(std::span<const Splice> splices) {
  return splice_list_size(SpliceRuns(&splices, 1));
}

std::size_t splice_list_size(SpliceRuns runs) {
  std::size_t sz = 4;  // count prefix
  for (const auto& run : runs) {
    for (const Splice& s : run) sz += splice_size(s.insert.size());
  }
  return sz;
}

void put_splice_list(wire::Writer& w, std::span<const Splice> splices) {
  put_splice_list(w, SpliceRuns(&splices, 1));
}

void put_splice_list(wire::Writer& w, SpliceRuns runs) {
  std::size_t count = 0;
  for (const auto& run : runs) count += run.size();
  w.put_u32(static_cast<std::uint32_t>(count));
  for (const auto& run : runs) {
    for (const Splice& s : run) put_splice(w, s);
  }
}

bool get_splice_list(wire::Reader& r, std::vector<SpliceView>* out) {
  const std::uint32_t count = r.get_u32();
  // Every splice takes at least splice_size(0) bytes, so a count the rest
  // of the buffer cannot hold is refused before anything is reserved.
  if (!r.ok() || count > kMaxN || count > r.remaining() / splice_size(0)) return false;
  out->reserve(count);
  for (std::uint32_t q = 0; q < count && r.ok(); ++q) out->push_back(get_splice(r));
  return r.ok();
}

InvocationTuple to_owned(const InvocationTupleView& v) {
  return InvocationTuple{v.client, v.oc, v.target,
                         Bytes(v.submit_sig.begin(), v.submit_sig.end())};
}

Value to_owned(const ValueView& v) {
  if (!v.has_value()) return std::nullopt;
  return Bytes(v->begin(), v->end());
}

std::optional<Bytes> apply_delta(BytesView base, std::span<const Splice> splices,
                                 std::uint64_t expected_size) {
  return apply_delta_impl<Splice>(base, splices, expected_size);
}

std::optional<Bytes> apply_delta(BytesView base, std::span<const SpliceView> splices,
                                 std::uint64_t expected_size) {
  return apply_delta_impl<SpliceView>(base, splices, expected_size);
}

ReadPayloadShared to_shared(ReadPayload rp) {
  ReadPayloadShared out;
  out.writer = std::move(rp.writer);
  out.tj = rp.tj;
  out.value = to_shared(std::move(rp.value));
  out.data_sig = SharedBytes::owned(std::move(rp.data_sig));
  return out;
}

ReplyMessage ReplyMessageView::materialize() const {
  ReplyMessage m;
  m.c = c;
  m.last = last.to_owned();
  if (read.has_value()) {
    ReadPayload rp;
    rp.writer = read->writer.to_owned();
    rp.tj = read->tj;
    rp.value = ustor::to_owned(read->value);
    rp.data_sig = Bytes(read->data_sig.begin(), read->data_sig.end());
    m.read = std::move(rp);
  }
  m.L.reserve(L.size());
  for (const InvocationTupleView& inv : L) m.L.push_back(to_owned(inv));
  m.P.reserve(P.size());
  for (const BytesView& p : P) m.P.emplace_back(p.begin(), p.end());
  return m;
}

ReplyMessage ReplySnapshot::materialize() const {
  ReplyMessage m;
  m.c = c;
  m.last = last;
  if (read.has_value()) m.read = read->materialize();
  const std::size_t lc = snapshot_l_count(*this);
  if (L) m.L.assign(L->begin(), L->begin() + static_cast<std::ptrdiff_t>(lc));
  if (P) m.P = *P;
  return m;
}

std::size_t size_hint(const SubmitMessage& m) {
  return 1 + 8 + invocation_size(m.inv) + value_size(as_view(m.value)) + 4 +
         m.data_sig.size() + (m.commit ? commit_tail_size(*m.commit) : 0);
}

std::size_t size_hint(const ReplyMessage& m) {
  return reply_body_size(m.last, read_part(m.read), m.L, m.L.size(), m.P);
}

std::size_t size_hint(const ReplySnapshot& m) {
  static const std::vector<InvocationTuple> kNoL;
  static const std::vector<Bytes> kNoP;
  return reply_body_size(m.last, read_part(m.read), m.L ? *m.L : kNoL, snapshot_l_count(m),
                         m.P ? *m.P : kNoP);
}

std::size_t size_hint(const SubmitDeltaMessage& m) {
  std::size_t sz = 1 + 8 + invocation_size(m.inv) + 4 + m.data_sig.size() +
                   (m.commit ? commit_tail_size(*m.commit) : 0);
  if (m.inv.oc == OpCode::kWrite) {
    sz += 32 + 32 + 8 + splice_list_size(m.splices);  // base, root, size, splices
  } else {
    sz += 8 + 32;  // base_ts, base_digest
  }
  return sz;
}

std::size_t size_hint(const ReplyDeltaMessage& m) {
  std::size_t sz = 1 + 4 + signed_version_size(m.last) + signed_version_size(m.read.writer) +
                   8 + 1 + 32;
  if (!m.read.unchanged) sz += 8 + splice_list_size(m.read.splices);
  sz += 4 + m.read.data_sig.size();
  sz += 4;
  for (const InvocationTuple& inv : m.L) sz += invocation_size(inv);
  sz += 4;
  for (const Bytes& p : m.P) sz += 4 + p.size();
  return sz;
}

std::size_t size_hint(const CommitMessage& m) {
  return 1 + version_size(m.version) + 4 + m.commit_sig.size() + 4 + m.proof_sig.size();
}

std::size_t size_hint(const ProbeMessage&) { return 1; }

std::size_t size_hint(const VersionMessage& m) {
  return 1 + 4 + signed_version_size(m.ver);
}

std::size_t size_hint(const FailureMessage& m) {
  std::size_t sz = 1 + 1;
  if (m.has_evidence) sz += 4 + signed_version_size(m.a) + 4 + signed_version_size(m.b);
  return sz;
}

Bytes encode_submit(Timestamp t, const InvocationTuple& inv, const ValueView& value,
                    BytesView data_sig, const CommitMessage* commit) {
  wire::Writer w(1 + 8 + invocation_size(inv) + value_size(value) + 4 + data_sig.size() +
                 (commit ? commit_tail_size(*commit) : 0));
  w.put_u8(static_cast<std::uint8_t>(MsgType::kSubmit));
  w.put_u64(t);
  put_invocation(w, inv);
  put_value(w, value);
  w.put_bytes(data_sig);
  if (commit) put_commit_tail(w, *commit);
  return w.take();
}

Bytes encode(const SubmitMessage& m) {
  return encode_submit(m.t, m.inv, as_view(m.value), BytesView(m.data_sig),
                       m.commit ? &*m.commit : nullptr);
}

Bytes encode(const ReplyMessage& m) {
  wire::Writer w(size_hint(m));
  encode_reply_body(w, m.c, m.last, read_part(m.read), m.L, m.L.size(), m.P);
  return w.take();
}

Bytes encode(const ReplySnapshot& m) {
  static const std::vector<InvocationTuple> kNoL;
  static const std::vector<Bytes> kNoP;
  wire::Writer w(size_hint(m));
  encode_reply_body(w, m.c, m.last, read_part(m.read), m.L ? *m.L : kNoL, snapshot_l_count(m),
                    m.P ? *m.P : kNoP);
  return w.take();
}

Bytes encode_submit_delta(Timestamp t, const InvocationTuple& inv,
                          const crypto::Hash& base_digest, const crypto::Hash& new_root,
                          std::uint64_t new_size, std::span<const Splice> splices,
                          BytesView data_sig, const CommitMessage* commit) {
  wire::Writer w(1 + 8 + invocation_size(inv) + 32 + 32 + 8 + splice_list_size(splices) + 4 +
                 data_sig.size() + (commit ? commit_tail_size(*commit) : 0));
  w.put_u8(static_cast<std::uint8_t>(MsgType::kSubmitDelta));
  w.put_u64(t);
  put_invocation(w, inv);
  put_hash(w, base_digest);
  put_hash(w, new_root);
  w.put_u64(new_size);
  put_splice_list(w, splices);
  w.put_bytes(data_sig);
  if (commit) put_commit_tail(w, *commit);
  return w.take();
}

Bytes encode_submit_read_base(Timestamp t, const InvocationTuple& inv, Timestamp base_ts,
                              const crypto::Hash& base_digest, BytesView data_sig,
                              const CommitMessage* commit) {
  wire::Writer w(1 + 8 + invocation_size(inv) + 8 + 32 + 4 + data_sig.size() +
                 (commit ? commit_tail_size(*commit) : 0));
  w.put_u8(static_cast<std::uint8_t>(MsgType::kSubmitDelta));
  w.put_u64(t);
  put_invocation(w, inv);
  w.put_u64(base_ts);
  put_hash(w, base_digest);
  w.put_bytes(data_sig);
  if (commit) put_commit_tail(w, *commit);
  return w.take();
}

Bytes encode(const SubmitDeltaMessage& m) {
  const CommitMessage* commit = m.commit ? &*m.commit : nullptr;
  if (m.inv.oc == OpCode::kWrite) {
    return encode_submit_delta(m.t, m.inv, m.base_digest, m.new_root, m.new_size,
                               std::span<const Splice>(m.splices), BytesView(m.data_sig),
                               commit);
  }
  return encode_submit_read_base(m.t, m.inv, m.base_ts, m.base_digest, BytesView(m.data_sig),
                                 commit);
}

Bytes encode(const ReplyDeltaMessage& m) {
  wire::Writer w(size_hint(m));
  w.put_u8(static_cast<std::uint8_t>(MsgType::kReplyDelta));
  w.put_u32(static_cast<std::uint32_t>(m.c));
  put_signed_version(w, m.last);
  put_signed_version(w, m.read.writer);
  w.put_u64(m.read.tj);
  w.put_u8(m.read.unchanged ? 1 : 0);
  put_hash(w, m.read.base_digest);
  if (!m.read.unchanged) {
    w.put_u64(m.read.new_size);
    put_splice_list(w, m.read.splices);
  }
  w.put_bytes(m.read.data_sig);
  w.put_u32(static_cast<std::uint32_t>(m.L.size()));
  for (const InvocationTuple& inv : m.L) put_invocation(w, inv);
  w.put_u32(static_cast<std::uint32_t>(m.P.size()));
  for (const Bytes& p : m.P) w.put_bytes(p);
  return w.take();
}

Bytes encode_reply_delta(const ReplySnapshot& snap, const ReadDeltaPlan& plan) {
  static const std::vector<InvocationTuple> kNoL;
  static const std::vector<Bytes> kNoP;
  static const SignedVersion kNoWriter;
  const std::vector<InvocationTuple>& L = snap.L ? *snap.L : kNoL;
  const std::size_t lc = snapshot_l_count(snap);
  const std::vector<Bytes>& P = snap.P ? *snap.P : kNoP;
  const ReadPartView read = read_part(snap.read);
  const SignedVersion& writer = read.writer != nullptr ? *read.writer : kNoWriter;

  std::size_t sz =
      1 + 4 + signed_version_size(snap.last) + signed_version_size(writer) + 8 + 1 + 32;
  if (!plan.unchanged) sz += 8 + splice_list_size(plan.runs);
  sz += 4 + read.data_sig.size();
  sz += 4;
  for (std::size_t q = 0; q < lc; ++q) sz += invocation_size(L[q]);
  sz += 4;
  for (const Bytes& p : P) sz += 4 + p.size();

  wire::Writer w(sz);
  w.put_u8(static_cast<std::uint8_t>(MsgType::kReplyDelta));
  w.put_u32(static_cast<std::uint32_t>(snap.c));
  put_signed_version(w, snap.last);
  put_signed_version(w, writer);
  w.put_u64(read.tj);
  w.put_u8(plan.unchanged ? 1 : 0);
  put_hash(w, plan.base_digest);
  if (!plan.unchanged) {
    w.put_u64(plan.new_size);
    put_splice_list(w, plan.runs);
  }
  w.put_bytes(read.data_sig);
  w.put_u32(static_cast<std::uint32_t>(lc));
  for (std::size_t q = 0; q < lc; ++q) put_invocation(w, L[q]);
  w.put_u32(static_cast<std::uint32_t>(P.size()));
  for (const Bytes& p : P) w.put_bytes(p);
  return w.take();
}

Bytes encode(const CommitMessage& m) {
  wire::Writer w(size_hint(m));
  w.put_u8(static_cast<std::uint8_t>(MsgType::kCommit));
  put_version(w, m.version);
  w.put_bytes(m.commit_sig);
  w.put_bytes(m.proof_sig);
  return w.take();
}

Bytes encode(const ProbeMessage&) {
  wire::Writer w(std::size_t{1});
  w.put_u8(static_cast<std::uint8_t>(MsgType::kProbe));
  return w.take();
}

Bytes encode(const VersionMessage& m) {
  wire::Writer w(size_hint(m));
  w.put_u8(static_cast<std::uint8_t>(MsgType::kVersion));
  w.put_u32(static_cast<std::uint32_t>(m.committer));
  put_signed_version(w, m.ver);
  return w.take();
}

Bytes encode(const FailureMessage& m) {
  wire::Writer w(size_hint(m));
  w.put_u8(static_cast<std::uint8_t>(MsgType::kFailure));
  w.put_u8(m.has_evidence ? 1 : 0);
  if (m.has_evidence) {
    w.put_u32(static_cast<std::uint32_t>(m.committer_a));
    put_signed_version(w, m.a);
    w.put_u32(static_cast<std::uint32_t>(m.committer_b));
    put_signed_version(w, m.b);
  }
  return w.take();
}

std::optional<MsgType> peek_type(BytesView data) {
  if (data.empty()) return std::nullopt;
  switch (data[0]) {
    case 1: return MsgType::kSubmit;
    case 2: return MsgType::kReply;
    case 3: return MsgType::kCommit;
    case 4: return MsgType::kSubmitDelta;
    case 5: return MsgType::kReplyDelta;
    case 10: return MsgType::kProbe;
    case 11: return MsgType::kVersion;
    case 12: return MsgType::kFailure;
    default: return std::nullopt;
  }
}

namespace {

/// Shared prologue: checks the tag and positions the reader after it.
bool open(wire::Reader& r, MsgType expected) {
  return r.get_u8() == static_cast<std::uint8_t>(expected) && r.ok();
}

}  // namespace

std::optional<SubmitMessageView> decode_submit_view(BytesView data) {
  wire::Reader r(data);
  if (!open(r, MsgType::kSubmit)) return std::nullopt;
  SubmitMessageView m;
  m.t = r.get_u64();
  m.inv = get_invocation(r);
  m.value = get_value(r);
  m.data_sig = r.get_bytes_view();
  get_commit_tail(r, m);
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

std::optional<SubmitMessage> decode_submit(BytesView data) {
  const auto view = decode_submit_view(data);
  if (!view.has_value()) return std::nullopt;
  SubmitMessage m;
  m.t = view->t;
  m.inv = to_owned(view->inv);
  m.value = to_owned(view->value);
  m.data_sig.assign(view->data_sig.begin(), view->data_sig.end());
  m.commit = owned_commit(*view);
  return m;
}

std::optional<ReplyMessageView> decode_reply_view(BytesView data) {
  wire::Reader r(data);
  if (!open(r, MsgType::kReply)) return std::nullopt;
  ReplyMessageView m;
  m.c = static_cast<ClientId>(r.get_u32());
  m.last = get_signed_version(r);
  const std::uint8_t has_read = r.get_u8();
  if (has_read > 1) return std::nullopt;
  if (has_read == 1) {
    ReadPayloadView rp;
    rp.writer = get_signed_version(r);
    rp.tj = r.get_u64();
    rp.value = get_value(r);
    rp.data_sig = r.get_bytes_view();
    m.read = rp;
  }
  const std::uint32_t l = r.get_u32();
  if (l > kMaxN) return std::nullopt;
  m.L.reserve(l);
  for (std::uint32_t q = 0; q < l && r.ok(); ++q) m.L.push_back(get_invocation(r));
  const std::uint32_t np = r.get_u32();
  if (np > kMaxN) return std::nullopt;
  m.P.reserve(np);
  for (std::uint32_t k = 0; k < np && r.ok(); ++k) m.P.push_back(r.get_bytes_view());
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

std::optional<ReplyMessage> decode_reply(BytesView data) {
  const auto view = decode_reply_view(data);
  if (!view.has_value()) return std::nullopt;
  return view->materialize();
}

std::optional<SubmitDeltaMessageView> decode_submit_delta_view(BytesView data) {
  wire::Reader r(data);
  if (!open(r, MsgType::kSubmitDelta)) return std::nullopt;
  SubmitDeltaMessageView m;
  m.t = r.get_u64();
  m.inv = get_invocation(r);
  if (!r.ok()) return std::nullopt;  // need a trustworthy oc to pick the form
  if (m.inv.oc == OpCode::kWrite) {
    m.base_digest = get_hash(r);
    m.new_root = get_hash(r);
    m.new_size = r.get_u64();
    if (!get_splice_list(r, &m.splices)) return std::nullopt;
  } else {
    m.base_ts = r.get_u64();
    m.base_digest = get_hash(r);
  }
  m.data_sig = r.get_bytes_view();
  get_commit_tail(r, m);
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

std::optional<SubmitDeltaMessage> decode_submit_delta(BytesView data) {
  const auto view = decode_submit_delta_view(data);
  if (!view.has_value()) return std::nullopt;
  SubmitDeltaMessage m;
  m.t = view->t;
  m.inv = to_owned(view->inv);
  m.base_digest = view->base_digest;
  m.new_root = view->new_root;
  m.new_size = view->new_size;
  m.splices.reserve(view->splices.size());
  for (const SpliceView& s : view->splices) {
    m.splices.push_back(Splice{s.offset, s.erase_len, Bytes(s.insert.begin(), s.insert.end())});
  }
  m.base_ts = view->base_ts;
  m.data_sig.assign(view->data_sig.begin(), view->data_sig.end());
  m.commit = owned_commit(*view);
  return m;
}

std::optional<ReplyDeltaMessageView> decode_reply_delta_view(BytesView data) {
  wire::Reader r(data);
  if (!open(r, MsgType::kReplyDelta)) return std::nullopt;
  ReplyDeltaMessageView m;
  m.c = static_cast<ClientId>(r.get_u32());
  m.last = get_signed_version(r);
  m.read.writer = get_signed_version(r);
  m.read.tj = r.get_u64();
  const std::uint8_t unchanged = r.get_u8();
  if (unchanged > 1) return std::nullopt;
  m.read.unchanged = unchanged == 1;
  m.read.base_digest = get_hash(r);
  if (!m.read.unchanged) {
    m.read.new_size = r.get_u64();
    if (!get_splice_list(r, &m.read.splices)) return std::nullopt;
  }
  m.read.data_sig = r.get_bytes_view();
  const std::uint32_t l = r.get_u32();
  if (l > kMaxN) return std::nullopt;
  m.L.reserve(l);
  for (std::uint32_t q = 0; q < l && r.ok(); ++q) m.L.push_back(get_invocation(r));
  const std::uint32_t np = r.get_u32();
  if (np > kMaxN) return std::nullopt;
  m.P.reserve(np);
  for (std::uint32_t k = 0; k < np && r.ok(); ++k) m.P.push_back(r.get_bytes_view());
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

std::optional<ReplyDeltaMessage> decode_reply_delta(BytesView data) {
  const auto view = decode_reply_delta_view(data);
  if (!view.has_value()) return std::nullopt;
  ReplyDeltaMessage m;
  m.c = view->c;
  m.last = view->last.to_owned();
  m.read.writer = view->read.writer.to_owned();
  m.read.tj = view->read.tj;
  m.read.unchanged = view->read.unchanged;
  m.read.base_digest = view->read.base_digest;
  m.read.new_size = view->read.new_size;
  m.read.splices.reserve(view->read.splices.size());
  for (const SpliceView& s : view->read.splices) {
    m.read.splices.push_back(
        Splice{s.offset, s.erase_len, Bytes(s.insert.begin(), s.insert.end())});
  }
  m.read.data_sig.assign(view->read.data_sig.begin(), view->read.data_sig.end());
  m.L.reserve(view->L.size());
  for (const InvocationTupleView& inv : view->L) m.L.push_back(to_owned(inv));
  m.P.reserve(view->P.size());
  for (const BytesView& p : view->P) m.P.emplace_back(p.begin(), p.end());
  return m;
}

std::optional<CommitMessage> decode_commit(BytesView data) {
  wire::Reader r(data);
  if (!open(r, MsgType::kCommit)) return std::nullopt;
  CommitMessage m;
  m.version = get_version(r);
  m.commit_sig = r.get_bytes();
  m.proof_sig = r.get_bytes();
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

std::optional<ProbeMessage> decode_probe(BytesView data) {
  wire::Reader r(data);
  if (!open(r, MsgType::kProbe)) return std::nullopt;
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return ProbeMessage{};
}

std::optional<VersionMessage> decode_version(BytesView data) {
  wire::Reader r(data);
  if (!open(r, MsgType::kVersion)) return std::nullopt;
  VersionMessage m;
  m.committer = static_cast<ClientId>(r.get_u32());
  const SignedVersionView sv = get_signed_version(r);
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  m.ver = sv.to_owned();
  return m;
}

std::optional<FailureMessage> decode_failure(BytesView data) {
  wire::Reader r(data);
  if (!open(r, MsgType::kFailure)) return std::nullopt;
  FailureMessage m;
  const std::uint8_t has_evidence = r.get_u8();
  if (has_evidence > 1) return std::nullopt;
  m.has_evidence = has_evidence == 1;
  if (m.has_evidence) {
    m.committer_a = static_cast<ClientId>(r.get_u32());
    const SignedVersionView a = get_signed_version(r);
    m.committer_b = static_cast<ClientId>(r.get_u32());
    const SignedVersionView b = get_signed_version(r);
    if (!r.ok() || !r.exhausted()) return std::nullopt;
    m.a = a.to_owned();
    m.b = b.to_owned();
    return m;
  }
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

Bytes submit_payload(OpCode oc, ClientId target, Timestamp t) {
  Bytes out;
  out.reserve(6 + 1 + 4 + 8);
  append(out, std::string_view("SUBMIT"));
  append_byte(out, static_cast<std::uint8_t>(oc));
  append_u32(out, static_cast<std::uint32_t>(target));
  append_u64(out, t);
  return out;
}

Bytes data_payload(Timestamp t, const crypto::Hash& xbar) {
  Bytes out;
  out.reserve(4 + 8 + xbar.size());
  append(out, std::string_view("DATA"));
  append_u64(out, t);
  append(out, BytesView(xbar.data(), xbar.size()));
  return out;
}

Bytes commit_payload(const Version& ver) {
  Bytes out;
  out.reserve(6 + encoded_version_size(ver));
  append(out, std::string_view("COMMIT"));
  append_version(out, ver);
  return out;
}

Bytes proof_payload(const Digest& mi) {
  Bytes out;
  out.reserve(5 + 1 + 32);
  append(out, std::string_view("PROOF"));
  append_digest(out, mi);
  return out;
}

}  // namespace faust::ustor
