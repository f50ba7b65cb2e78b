// DeltaHistory — the short per-register splice history that lets an
// untrusted relay answer an advertised-base read with splices instead of
// the whole value (DESIGN.md D6). Both relays keep one per register: a
// shard's ServerCore, for REPLY_DELTA, and the edge cache's CacheNode, for
// the kDelta sections of a CACHE_REPLY (D8). The chain rule and the
// planner below are the only implementation of either.
//
// A history is a chain of records, oldest first: the `to` root of each is
// the `from` root of the next, and the newest record's `to` is the root of
// the value its owner holds. The owner verifies no root — it holds no
// keys — so a lying record only ever yields splices that the reader's
// rebuild-rehash-verify check rejects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "crypto/sha256.h"
#include "ustor/messages.h"

namespace faust::ustor {

/// One accepted delta write, kept so later advertised-base reads can be
/// served as splices.
struct DeltaRecord {
  crypto::Hash from{};  // chunk-tree root the splices apply against
  crypto::Hash to{};    // root after applying them (the writer's claim)
  std::uint64_t new_size = 0;
  std::vector<Splice> splices;
  std::size_t wire_bytes = 0;  // encoded size of the splice list

  /// A record owning copies of decoded splices (views into a message).
  static DeltaRecord copy_of(const crypto::Hash& from, const crypto::Hash& to,
                             std::uint64_t new_size, std::span<const SpliceView> splices);
};

/// How an advertised-base read can be served.
enum class ReadServing {
  kFull,       // base unknown / history too old / delta not smaller
  kUnchanged,  // the held root equals the advertised base
  kDelta,      // plan->runs carries the base forward to the held value
};

class DeltaHistory {
 public:
  /// Records kept; a reader whose base is older falls back to the full
  /// value.
  static constexpr std::size_t kDepth = 8;

  /// The chain rule. `rec` was just applied to a value whose root is
  /// `held`: when that is the root its splices claim to apply against
  /// (rec.from) the record extends the chain, otherwise the chain restarts
  /// at it. Keeps the newest kDepth records and fills in rec.wire_bytes.
  void append(const crypto::Hash& held, DeltaRecord rec);

  /// The planner: how to answer a reader that advertised `base`, given
  /// that the held value has root `current` and is `size` bytes. kDelta
  /// only when the history reaches `base` and the runs are smaller than
  /// the value. On kDelta, plan->runs borrow this history and stay valid
  /// until its next mutation.
  ReadServing plan(const crypto::Hash& current, std::size_t size, const crypto::Hash& base,
                   ReadDeltaPlan* plan) const;

  void clear() { records_.clear(); }
  std::size_t size() const { return records_.size(); }
  const DeltaRecord& operator[](std::size_t q) const { return records_[q]; }
  auto begin() const { return records_.begin(); }
  auto end() const { return records_.end(); }

  /// Encoded splice bytes held (what the cache charges to its arena).
  std::size_t bytes() const;

 private:
  std::deque<DeltaRecord> records_;
};

}  // namespace faust::ustor
