#include "cache/cache_wire.h"

#include <cstring>

#include "wire/encoder.h"

namespace faust::cache {
namespace {

// Structural ceiling on section counts: far above any real deployment's n
// (clients per shard), low enough that a forged header cannot force a
// large allocation.
constexpr std::uint32_t kMaxSections = 4096;

void put_hash(wire::Writer& w, const crypto::Hash& h) {
  w.put_raw(BytesView(h.data(), h.size()));
}

bool get_hash(wire::Reader& r, crypto::Hash& out) {
  const BytesView v = r.get_view(out.size());
  if (wire::Reader::is_error(v)) return false;
  std::memcpy(out.data(), v.data(), out.size());
  return true;
}

// Wire forms of a CACHE_FILL section (the byte after the writer id).
constexpr std::uint8_t kFillNegative = 0;
constexpr std::uint8_t kFillFull = 1;
constexpr std::uint8_t kFillDelta = 2;

}  // namespace

Bytes encode_get(const GetMessage& m) {
  std::size_t hint = 1 + 8 + 1 + 4;
  for (const auto& b : m.bases) hint += 1 + (b.has_value() ? sizeof(crypto::Hash) : 0);
  wire::Writer w(hint);
  w.put_u8(static_cast<std::uint8_t>(MsgType::kGet));
  w.put_u64(m.req_id);
  w.put_u8(m.allow_stale ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(m.bases.size()));
  for (const auto& b : m.bases) {
    w.put_u8(b.has_value() ? 1 : 0);
    if (b.has_value()) put_hash(w, *b);
  }
  return w.take();
}

std::optional<GetMessage> decode_get(BytesView data) {
  wire::Reader r(data);
  if (r.get_u8() != static_cast<std::uint8_t>(MsgType::kGet)) return std::nullopt;
  GetMessage m;
  m.req_id = r.get_u64();
  const std::uint8_t stale = r.get_u8();
  if (stale > 1) return std::nullopt;
  m.allow_stale = stale == 1;
  const std::uint32_t count = r.get_u32();
  if (!r.ok() || count > kMaxSections) return std::nullopt;
  m.bases.resize(count);
  for (std::uint32_t k = 0; k < count && r.ok(); ++k) {
    const std::uint8_t has = r.get_u8();
    if (has > 1) return std::nullopt;
    if (has == 1) {
      crypto::Hash h{};
      if (!get_hash(r, h)) return std::nullopt;
      m.bases[k] = h;
    }
  }
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

Bytes encode_reply(std::uint64_t req_id, const std::vector<OutSection>& sections) {
  std::size_t hint = 1 + 8 + 4;
  for (const OutSection& s : sections) {
    hint += 1;
    switch (s.status) {
      case SectionStatus::kHit:
        hint += 8 + sizeof(crypto::Hash) + 4 + s.sig.size() + 4 +
                (s.value ? s.value->size() : 0) + 8;
        break;
      case SectionStatus::kUnchanged:
        hint += 8 + sizeof(crypto::Hash) + 4 + s.sig.size() + 8;
        break;
      case SectionStatus::kDelta:
        hint += 8 + 2 * sizeof(crypto::Hash) + 4 + s.sig.size() + 8 +
                ustor::splice_list_size(s.delta.runs) + 8;
        break;
      case SectionStatus::kNegative:
        hint += 8;
        break;
      case SectionStatus::kMiss:
        break;
    }
  }
  wire::Writer w(hint);
  w.put_u8(static_cast<std::uint8_t>(MsgType::kReply));
  w.put_u64(req_id);
  w.put_u32(static_cast<std::uint32_t>(sections.size()));
  for (const OutSection& s : sections) {
    w.put_u8(static_cast<std::uint8_t>(s.status));
    switch (s.status) {
      case SectionStatus::kHit:
        w.put_u64(s.writer_ts);
        put_hash(w, s.digest);
        w.put_bytes(BytesView(s.sig));
        w.put_bytes(s.value ? BytesView(*s.value) : BytesView());
        w.put_u64(s.as_of);
        break;
      case SectionStatus::kUnchanged:
        w.put_u64(s.writer_ts);
        put_hash(w, s.digest);
        w.put_bytes(BytesView(s.sig));
        w.put_u64(s.as_of);
        break;
      case SectionStatus::kDelta:
        w.put_u64(s.writer_ts);
        put_hash(w, s.digest);
        w.put_bytes(BytesView(s.sig));
        put_hash(w, s.delta.base_digest);
        w.put_u64(s.delta.new_size);
        ustor::put_splice_list(w, s.delta.runs);
        w.put_u64(s.as_of);
        break;
      case SectionStatus::kNegative:
        w.put_u64(s.as_of);
        break;
      case SectionStatus::kMiss:
        break;
    }
  }
  return w.take();
}

std::optional<ReplyMessageView> decode_reply_view(BytesView data) {
  wire::Reader r(data);
  if (r.get_u8() != static_cast<std::uint8_t>(MsgType::kReply)) return std::nullopt;
  ReplyMessageView m;
  m.req_id = r.get_u64();
  const std::uint32_t count = r.get_u32();
  if (!r.ok() || count > kMaxSections) return std::nullopt;
  m.sections.resize(count);
  for (std::uint32_t k = 0; k < count && r.ok(); ++k) {
    ReplySectionView& s = m.sections[k];
    const std::uint8_t status = r.get_u8();
    if (status > static_cast<std::uint8_t>(SectionStatus::kDelta)) return std::nullopt;
    s.status = static_cast<SectionStatus>(status);
    switch (s.status) {
      case SectionStatus::kHit:
        s.writer_ts = r.get_u64();
        if (!get_hash(r, s.digest)) return std::nullopt;
        s.sig = r.get_bytes_view();
        s.value = r.get_bytes_view();
        s.as_of = r.get_u64();
        if (wire::Reader::is_error(s.sig) || wire::Reader::is_error(s.value)) {
          return std::nullopt;
        }
        break;
      case SectionStatus::kUnchanged:
        s.writer_ts = r.get_u64();
        if (!get_hash(r, s.digest)) return std::nullopt;
        s.sig = r.get_bytes_view();
        s.as_of = r.get_u64();
        if (wire::Reader::is_error(s.sig)) return std::nullopt;
        break;
      case SectionStatus::kDelta:
        s.writer_ts = r.get_u64();
        if (!get_hash(r, s.digest)) return std::nullopt;
        s.sig = r.get_bytes_view();
        if (wire::Reader::is_error(s.sig) || !get_hash(r, s.base)) return std::nullopt;
        s.new_size = r.get_u64();
        if (!ustor::get_splice_list(r, &s.splices)) return std::nullopt;
        s.as_of = r.get_u64();
        break;
      case SectionStatus::kNegative:
        s.as_of = r.get_u64();
        break;
      case SectionStatus::kMiss:
        break;
    }
  }
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

Bytes encode_fill(const std::vector<FillSection>& sections) {
  std::size_t hint = 1 + 4;
  for (const FillSection& s : sections) {
    hint += 4 + 1 + 8;
    if (!s.present) continue;
    hint += 8 + sizeof(crypto::Hash) + 4 + s.sig.size();
    if (s.delta) {
      hint += sizeof(crypto::Hash) + 8 + ustor::splice_list_size(s.splices);
    } else {
      hint += 4 + s.value.size();
    }
  }
  wire::Writer w(hint);
  w.put_u8(static_cast<std::uint8_t>(MsgType::kFill));
  w.put_u32(static_cast<std::uint32_t>(sections.size()));
  for (const FillSection& s : sections) {
    w.put_u32(static_cast<std::uint32_t>(s.writer));
    w.put_u8(!s.present ? kFillNegative : s.delta ? kFillDelta : kFillFull);
    if (s.present) {
      w.put_u64(s.writer_ts);
      put_hash(w, s.digest);
      w.put_bytes(BytesView(s.sig));
      if (s.delta) {
        put_hash(w, s.base);
        w.put_u64(s.new_size);
        ustor::put_splice_list(w, s.splices);
      } else {
        w.put_bytes(BytesView(s.value));
      }
    }
    w.put_u64(s.as_of);
  }
  return w.take();
}

std::optional<FillMessageView> decode_fill_view(BytesView data) {
  wire::Reader r(data);
  if (r.get_u8() != static_cast<std::uint8_t>(MsgType::kFill)) return std::nullopt;
  FillMessageView m;
  const std::uint32_t count = r.get_u32();
  if (!r.ok() || count > kMaxSections) return std::nullopt;
  m.sections.resize(count);
  for (std::uint32_t k = 0; k < count && r.ok(); ++k) {
    FillSectionView& s = m.sections[k];
    const std::uint32_t writer = r.get_u32();
    if (writer == 0 || writer > kMaxSections) return std::nullopt;
    s.writer = static_cast<ClientId>(writer);
    const std::uint8_t form = r.get_u8();
    if (form > kFillDelta) return std::nullopt;
    s.present = form != kFillNegative;
    s.delta = form == kFillDelta;
    if (s.present) {
      s.writer_ts = r.get_u64();
      if (!get_hash(r, s.digest)) return std::nullopt;
      s.sig = r.get_bytes_view();
      if (wire::Reader::is_error(s.sig)) return std::nullopt;
      if (s.delta) {
        if (!get_hash(r, s.base)) return std::nullopt;
        s.new_size = r.get_u64();
        if (!ustor::get_splice_list(r, &s.splices)) return std::nullopt;
      } else {
        s.value = r.get_bytes_view();
        if (wire::Reader::is_error(s.value)) return std::nullopt;
      }
    }
    s.as_of = r.get_u64();
  }
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

}  // namespace faust::cache
