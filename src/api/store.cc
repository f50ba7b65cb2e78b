#include "api/store.h"

#include <utility>

#include "sim/scheduler.h"

namespace faust::api {

bool operator==(const PutResult& a, const PutResult& b) {
  return a.ts == b.ts && a.stable == b.stable && a.shard == b.shard &&
         a.failed == b.failed && a.status == b.status;
}

bool operator==(const GetResult& a, const GetResult& b) {
  return a.entry == b.entry && a.read_ts == b.read_ts && a.stable == b.stable &&
         a.shard == b.shard && a.failed == b.failed && a.cached == b.cached &&
         a.as_of == b.as_of && a.status == b.status;
}

bool operator==(const ListResult& a, const ListResult& b) {
  return a.entries == b.entries && a.complete == b.complete;
}

namespace detail {

template <>
PutResult unresolved_result<PutResult>() {
  PutResult r;
  r.failed = true;
  r.status = Status::kTimedOut;
  return r;
}

template <>
GetResult unresolved_result<GetResult>() {
  GetResult r;
  r.failed = true;
  r.status = Status::kTimedOut;
  return r;
}

template <>
ListResult unresolved_result<ListResult>() {
  return ListResult{};  // complete = false
}

template <>
BatchResult unresolved_result<BatchResult>() {
  return BatchResult{};  // ok = false
}

bool drain_scheduler(StoreCore& core, const std::function<bool()>& ready) {
  FAUST_CHECK(core.sched != nullptr);
  std::size_t budget = core.step_budget;
  while (!ready()) {
    if (budget == 0 || !core.sched->step()) return ready();
    --budget;
  }
  return true;
}

// --- D10 per-shard breaker -------------------------------------------------

void StoreCore::note_timeout(std::size_t shard) {
  std::lock_guard lock(mu);
  if (breaker_threshold == 0 || shard == kNoShard) return;
  if (shard >= health.size()) health.resize(shard + 1);
  ShardHealth& h = health[shard];
  h.probing = false;  // a probe that timed out re-arms the breaker
  if (++h.consecutive_timeouts >= breaker_threshold && !h.open) {
    h.open = true;
    h.skipped = 0;
    ++h.opens;
  }
}

void StoreCore::note_contact(std::size_t shard) {
  std::lock_guard lock(mu);
  if (shard == kNoShard || shard >= health.size()) return;
  ShardHealth& h = health[shard];
  h.consecutive_timeouts = 0;
  h.open = false;
  h.probing = false;
  h.skipped = 0;
}

bool StoreCore::breaker_blocks(std::size_t shard) {
  std::lock_guard lock(mu);
  if (breaker_threshold == 0 || shard >= health.size()) return false;
  ShardHealth& h = health[shard];
  if (!h.open) return false;
  if (h.probing) return true;  // one probe at a time
  if (++h.skipped >= breaker_cooldown) {
    // Half-open: let this op through as the recovery probe. Completion
    // (note_contact) closes the breaker; another timeout re-arms it.
    h.probing = true;
    h.skipped = 0;
    return false;
  }
  return true;
}

bool StoreCore::breaker_open(std::size_t shard) {
  std::lock_guard lock(mu);
  return shard < health.size() && health[shard].open;
}

}  // namespace detail

// --- Batch planning and execution ------------------------------------------
//
// apply() is the ONE operation path: the single-op forms are batches of
// one. The plan is a per-shard list of steps in batch order — a step is
// either a mutation run (adjacent puts/erases, ONE publication) or a read
// point (adjacent gets plus any kList contributions, ONE snapshot). The
// per-shard chains execute their steps sequentially but run concurrently
// with each other; that concurrency is virtual-time overlap under the
// deterministic scheduler and genuine parallelism under threaded shards.

namespace detail {

struct Step {
  bool is_mutation = false;
  /// D10: a read step planned while the home shard's breaker was open —
  /// executed via engine_degraded_snapshot (cache-only, shard untouched).
  bool degraded = false;
  std::vector<std::size_t> op_indices;  // into the batch's op vector
};

struct BatchCtx {
  std::mutex mu;
  std::vector<Op> ops;
  std::vector<std::uint64_t> op_seqs;  // plan-time tickets; 0 = no-op / read
  std::vector<OpResult> results;
  /// kList accumulators: op index -> (shards still to contribute, result).
  struct ListAcc {
    std::size_t waiting = 0;
    ListResult acc;
  };
  std::map<std::size_t, ListAcc> lists;
  std::size_t chains_left = 0;
  bool ok = true;
  Store::BatchHandler done;
};

}  // namespace detail

using detail::BatchCtx;
using detail::Step;

void Store::apply(std::vector<Op> ops, BatchHandler done) {
  const std::size_t shard_count = shards();
  if (ops.empty()) {
    if (done) done(BatchResult{{}, true});
    return;
  }

  auto ctx = std::make_shared<BatchCtx>();
  ctx->results.resize(ops.size());
  ctx->op_seqs.resize(ops.size(), 0);
  ctx->done = std::move(done);

  // Plan: route every op, coalescing into per-shard step runs, and draw
  // each mutation's sequence ticket HERE, in program order — the shard
  // chains below complete in arbitrary relative order (they race under
  // kThreaded), but the tickets, and with them every conflict winner, are
  // fixed before anything executes.
  auto plan = std::make_shared<std::vector<std::vector<Step>>>(shard_count);
  const auto step_for = [&](std::size_t s, bool mutation, bool degraded = false) -> Step& {
    auto& steps = (*plan)[s];
    if (steps.empty() || steps.back().is_mutation != mutation ||
        steps.back().degraded != degraded) {
      steps.push_back(Step{mutation, degraded, {}});
    }
    return steps.back();
  };
  // D10 breaker gate, applied HERE at plan time — before any sequence
  // ticket is drawn. Refusing an op after drawing its ticket would leave
  // a gap in the (seq, writer) order and shift conflict winners, breaking
  // the chaos-vs-clean differential; refusing before keeps the executed
  // prefix byte-identical to a run where the refused ops never existed.
  // Writes to an open shard fail fast (kUnavailable, no ticket, mirror
  // untouched); reads fall back to the cache tier served-stale.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::Kind::kPut: {
        const std::size_t s = home_shard(op.key);
        if (core_->breaker_blocks(s)) {
          ctx->results[i].kind = op.kind;
          ctx->results[i].put =
              PutResult{0, false, s, /*failed=*/true, Status::kUnavailable};
          ctx->ok = false;
          break;
        }
        own_keys_.insert(op.key);
        ctx->op_seqs[i] = engine_next_seq();
        step_for(s, /*mutation=*/true).op_indices.push_back(i);
        break;
      }
      case Op::Kind::kErase: {
        const std::size_t s = home_shard(op.key);
        if (core_->breaker_blocks(s)) {
          ctx->results[i].kind = op.kind;
          ctx->results[i].put =
              PutResult{0, false, s, /*failed=*/true, Status::kUnavailable};
          ctx->ok = false;
          break;
        }
        // The no-op-erase rule, decided against the plan-time mirror:
        // erasing a key this client does not hold consumes no ticket (and
        // the engines publish nothing for it).
        if (own_keys_.erase(op.key) > 0) ctx->op_seqs[i] = engine_next_seq();
        step_for(s, /*mutation=*/true).op_indices.push_back(i);
        break;
      }
      case Op::Kind::kGet: {
        const std::size_t s = home_shard(op.key);
        const bool degraded = core_->breaker_blocks(s);
        step_for(s, /*mutation=*/false, degraded).op_indices.push_back(i);
        break;
      }
      case Op::Kind::kList: {
        auto& acc = ctx->lists[i];
        acc.waiting = 0;
        acc.acc.complete = true;
        for (std::size_t s = 0; s < shard_count; ++s) {
          if (core_->breaker_blocks(s)) {
            // An unreachable shard's keys are missing, and a stale cache
            // view must not masquerade as them: the listing reports
            // incomplete rather than silently mixing freshness.
            acc.acc.complete = false;
            ctx->ok = false;
            continue;
          }
          ++acc.waiting;
          step_for(s, /*mutation=*/false).op_indices.push_back(i);
        }
        if (acc.waiting == 0) {
          ctx->results[i].kind = op.kind;
          ctx->results[i].list = std::move(acc.acc);
          ctx->ok = false;
        }
        break;
      }
    }
  }
  ctx->ops = std::move(ops);
  for (const auto& steps : *plan) {
    if (!steps.empty()) ++ctx->chains_left;
  }

  if (ctx->chains_left == 0) {
    // Every op was refused at the gate: complete the batch inline.
    if (ctx->done) ctx->done(BatchResult{std::move(ctx->results), ctx->ok});
    return;
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (!(*plan)[s].empty()) run_step(s, 0, plan, ctx);
  }
}

void Store::run_step(std::size_t s, std::size_t step_index,
                     std::shared_ptr<std::vector<std::vector<Step>>> plan,
                     std::shared_ptr<BatchCtx> ctx) {
  const auto& steps = (*plan)[s];
  if (step_index == steps.size()) {
    Store::BatchHandler fire;
    BatchResult result;
    {
      std::lock_guard lock(ctx->mu);
      if (--ctx->chains_left == 0) {
        fire = std::move(ctx->done);
        result.results = std::move(ctx->results);
        result.ok = ctx->ok;
      }
    }
    if (fire) fire(result);
    return;
  }
  const Step& step = steps[step_index];

  if (step.is_mutation) {
    const auto complete = [this, s, step_index, plan, ctx](Timestamp ts, bool failed) {
      PutResult r;
      r.shard = s;
      r.failed = failed;
      r.status = failed ? Status::kFailed : Status::kOk;
      const bool covered = !failed && ts > 0 && stable_ts(s) >= ts;
      {
        std::lock_guard lock(ctx->mu);
        if (failed) ctx->ok = false;
        for (const std::size_t i : (*plan)[s][step_index].op_indices) {
          ctx->results[i].kind = ctx->ops[i].kind;
          // A no-op change reports ts=0 ("no write was needed for this
          // op") even when effective neighbors shared a publication.
          const bool took_effect = !failed && ctx->op_seqs[i] != 0;
          r.ts = took_effect ? ts : 0;
          r.stable = took_effect && covered;
          ctx->results[i].put = r;
        }
      }
      run_step(s, step_index + 1, plan, ctx);
    };
    if (closing_.load(std::memory_order_acquire)) {
      // begin_close(): settle the rest of the chain without new engine
      // work (which would re-arm already-drained pending slots).
      complete(0, /*failed=*/true);
      return;
    }
    std::vector<kv::KvClient::SeqChange> changes;
    changes.reserve(step.op_indices.size());
    for (const std::size_t i : step.op_indices) {
      const Op& op = ctx->ops[i];
      changes.push_back(kv::KvClient::SeqChange{
          op.key,
          op.kind == Op::Kind::kPut ? std::optional<std::string>(op.value) : std::nullopt,
          ctx->op_seqs[i]});
    }
    engine_mutate(s, std::move(changes), complete);
    return;
  }

  const bool degraded = step.degraded;
  const auto snapshot_complete =
      [this, s, step_index, plan, ctx, degraded](
          const kv::SnapshotView* view, Timestamp read_ts, const kv::ReadOrigin& origin) {
        const bool failed = view == nullptr;
        const Timestamp cut = (!failed && read_ts > 0) ? stable_ts(s) : 0;
        // Gets search the view in place; the merged map is built at most
        // once per step, and only when the step holds a kList.
        std::optional<std::map<std::string, kv::KvEntry>> merged;
        {
          std::lock_guard lock(ctx->mu);
          if (failed) ctx->ok = false;
          for (const std::size_t i : (*plan)[s][step_index].op_indices) {
            const Op& op = ctx->ops[i];
            ctx->results[i].kind = op.kind;
            if (op.kind == Op::Kind::kGet) {
              GetResult& g = ctx->results[i].get;
              g.shard = s;
              g.failed = failed;
              // Degraded reads that the cache could not answer are a
              // reachability outcome (kUnavailable), not misbehavior.
              g.status = failed ? (degraded ? Status::kUnavailable : Status::kFailed)
                                : Status::kOk;
              g.read_ts = read_ts;
              if (!failed) {
                g.entry = view->find(op.key);
                g.cached = origin.cached;
                g.as_of = origin.as_of;
                // Stability claims never attach to cache-served views: a
                // cached register is authentic but its observation is not
                // an engine read the stability cut can cover.
                g.stable = !origin.cached && read_ts > 0 && cut >= read_ts;
              }
            } else {  // kList contribution from this shard
              auto& acc = ctx->lists.at(i);
              if (failed) {
                acc.acc.complete = false;
              } else {
                if (!merged.has_value()) merged = view->merge();
                for (const auto& [key, entry] : *merged) {
                  // Home-shard filter: a key can only appear in a foreign
                  // shard's registers under a misbehaving party; it must
                  // not shadow the home shard's authoritative entry.
                  if (home_shard(key) == s) acc.acc.entries[key] = entry;
                }
              }
              if (--acc.waiting == 0) {
                ctx->results[i].list = std::move(acc.acc);
              }
            }
          }
        }
        run_step(s, step_index + 1, plan, ctx);
      };
  if (closing_.load(std::memory_order_acquire)) {
    // begin_close(): settle the rest of the chain without new engine
    // work (which would re-arm already-drained pending slots).
    snapshot_complete(nullptr, 0, kv::ReadOrigin{});
    return;
  }
  if (degraded) {
    engine_degraded_snapshot(s, snapshot_complete);
  } else {
    engine_snapshot(s, snapshot_complete);
  }
}

// --- Single-op forms: batches of one ---------------------------------------

void Store::put(std::string key, std::string value, PutHandler done) {
  std::vector<Op> ops;
  ops.push_back(Op::put(std::move(key), std::move(value)));
  apply(std::move(ops), [done = std::move(done)](const BatchResult& b) {
    if (done) done(b.results[0].put);
  });
}

void Store::erase(std::string key, PutHandler done) {
  std::vector<Op> ops;
  ops.push_back(Op::erase(std::move(key)));
  apply(std::move(ops), [done = std::move(done)](const BatchResult& b) {
    if (done) done(b.results[0].put);
  });
}

void Store::get(std::string key, GetHandler done) {
  std::vector<Op> ops;
  ops.push_back(Op::get(std::move(key)));
  apply(std::move(ops), [done = std::move(done)](const BatchResult& b) {
    if (done) done(b.results[0].get);
  });
}

void Store::list(ListHandler done) {
  std::vector<Op> ops;
  ops.push_back(Op::list());
  apply(std::move(ops), [done = std::move(done)](const BatchResult& b) {
    if (done) done(b.results[0].list);
  });
}

Ticket<PutResult> Store::put(std::string key, std::string value) {
  const std::size_t s = home_shard(key);  // breaker attribution (D10)
  return make_ticket<PutResult>(
      [&](auto resolve) { put(std::move(key), std::move(value), std::move(resolve)); }, s);
}

Ticket<PutResult> Store::erase(std::string key) {
  const std::size_t s = home_shard(key);
  return make_ticket<PutResult>(
      [&](auto resolve) { erase(std::move(key), std::move(resolve)); }, s);
}

Ticket<GetResult> Store::get(std::string key) {
  const std::size_t s = home_shard(key);
  return make_ticket<GetResult>(
      [&](auto resolve) { get(std::move(key), std::move(resolve)); }, s);
}

Ticket<ListResult> Store::list() {
  return make_ticket<ListResult>([&](auto resolve) { list(std::move(resolve)); });
}

Ticket<BatchResult> Store::apply(std::vector<Op> ops) {
  return make_ticket<BatchResult>(
      [&](auto resolve) { apply(std::move(ops), std::move(resolve)); });
}

// --- Stability and failure helpers -----------------------------------------

bool Store::any_failed() const {
  for (std::size_t s = 0; s < shards(); ++s) {
    if (failed(s)) return true;
  }
  return false;
}

bool Store::stable(const GetResult& r) const {
  // Cache-served observations are never stability-eligible (D8): the
  // cut covers engine reads, not fills that may be stale up to as_of.
  if (r.failed || r.cached || r.read_ts == 0) return false;
  return stable_ts(r.shard) >= r.read_ts;
}

bool Store::stable(const PutResult& r) const {
  if (r.failed || r.ts == 0) return false;
  return stable_ts(r.shard) >= r.ts;
}

}  // namespace faust::api
