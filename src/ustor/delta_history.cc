#include "ustor/delta_history.h"

#include <utility>

namespace faust::ustor {

DeltaRecord DeltaRecord::copy_of(const crypto::Hash& from, const crypto::Hash& to,
                                 std::uint64_t new_size, std::span<const SpliceView> splices) {
  DeltaRecord rec;
  rec.from = from;
  rec.to = to;
  rec.new_size = new_size;
  rec.splices.reserve(splices.size());
  for (const SpliceView& s : splices) {
    rec.splices.push_back(Splice{s.offset, s.erase_len, Bytes(s.insert.begin(), s.insert.end())});
  }
  return rec;
}

void DeltaHistory::append(const crypto::Hash& held, DeltaRecord rec) {
  if (held != rec.from) records_.clear();
  rec.wire_bytes = splice_list_size(rec.splices);
  records_.push_back(std::move(rec));
  while (records_.size() > kDepth) records_.pop_front();
}

ReadServing DeltaHistory::plan(const crypto::Hash& current, std::size_t size,
                               const crypto::Hash& base, ReadDeltaPlan* plan) const {
  plan->unchanged = false;
  plan->base_digest = base;
  plan->runs.clear();
  if (current == base) {
    plan->unchanged = true;
    return ReadServing::kUnchanged;
  }
  // Walk back from the newest record, looking for the reader's base; give
  // up once the accumulated splice bytes match the full value (a delta
  // that isn't smaller buys nothing).
  std::size_t bytes = 0;
  std::size_t start = records_.size();
  for (std::size_t q = records_.size(); q > 0; --q) {
    bytes += records_[q - 1].wire_bytes;
    if (bytes >= size) return ReadServing::kFull;
    if (records_[q - 1].from == base) {
      start = q - 1;
      break;
    }
  }
  if (start == records_.size()) return ReadServing::kFull;  // base too old
  plan->new_size = size;
  plan->runs.reserve(records_.size() - start);
  for (std::size_t q = start; q < records_.size(); ++q) {
    plan->runs.push_back(std::span<const Splice>(records_[q].splices));
  }
  return ReadServing::kDelta;
}

std::size_t DeltaHistory::bytes() const {
  std::size_t total = 0;
  for (const DeltaRecord& rec : records_) total += rec.wire_bytes;
  return total;
}

}  // namespace faust::ustor
