#include "adversary/evil_cache.h"

#include <memory>
#include <utility>

namespace faust::adversary {

using cache::OutSection;
using cache::SectionStatus;

namespace {

bool signed_section(const OutSection& s) {
  return s.status == SectionStatus::kHit || s.status == SectionStatus::kUnchanged ||
         s.status == SectionStatus::kDelta;
}

}  // namespace

void EvilCacheNode::corrupt_reply(NodeId /*to*/, std::vector<OutSection>& sections) {
  forged_.clear();
  switch (mode_) {
    case Mode::kHonest:
    case Mode::kStaleBeyondTtl:
    case Mode::kFreezeFills:
      return;
    case Mode::kTamperValue:
      for (OutSection& s : sections) {
        if (s.status != SectionStatus::kHit || !s.value || s.value->empty()) continue;
        auto tampered = std::make_shared<Bytes>(*s.value);
        (*tampered)[0] ^= 0x01;
        s.value = std::move(tampered);
        ++corruptions_;
      }
      return;
    case Mode::kForgeDigest:
      for (OutSection& s : sections) {
        if (!signed_section(s)) continue;
        s.digest[0] ^= 0x01;
        ++corruptions_;
      }
      return;
    case Mode::kForgeSig:
      for (OutSection& s : sections) {
        if (!signed_section(s) || s.sig.empty()) continue;
        s.sig[0] ^= 0x01;
        ++corruptions_;
      }
      return;
    case Mode::kBogusNegative:
      for (OutSection& s : sections) {
        s = OutSection{};
        s.status = SectionStatus::kNegative;
        ++corruptions_;
      }
      return;
    case Mode::kFakeUnchanged:
      // Claim "what you hold is current" without shipping bytes. The
      // client only accepts this when the writer's signature binds the
      // claimed timestamp to the EXACT digest it advertised — so this
      // succeeds precisely when it is true, and is rejected otherwise.
      for (OutSection& s : sections) {
        if (s.status != SectionStatus::kHit) continue;
        s.status = SectionStatus::kUnchanged;
        s.value.reset();
        ++corruptions_;
      }
      return;
    case Mode::kTamperSplice:
      // The runs borrow the honest history: serve a tampered copy instead.
      for (OutSection& s : sections) {
        if (s.status != SectionStatus::kDelta) continue;
        std::vector<ustor::Splice>& copy = forged_.emplace_back();
        for (const auto& run : s.delta.runs) copy.insert(copy.end(), run.begin(), run.end());
        for (ustor::Splice& sp : copy) {
          if (sp.insert.empty()) continue;
          sp.insert[sp.insert.size() / 2] ^= 0x01;
          ++corruptions_;
          break;
        }
        s.delta.runs.assign(1, std::span<const ustor::Splice>(copy));
      }
      return;
    case Mode::kForgeBase:
      for (OutSection& s : sections) {
        if (s.status != SectionStatus::kDelta) continue;
        s.delta.runs.erase(s.delta.runs.begin());
        ++corruptions_;
      }
      return;
  }
}

bool EvilCacheNode::entry_expired(const Entry& e) const {
  if (mode_ == Mode::kStaleBeyondTtl) return false;
  return cache::CacheNode::entry_expired(e);
}

bool EvilCacheNode::accept_fills() const { return mode_ != Mode::kFreezeFills; }

}  // namespace faust::adversary
