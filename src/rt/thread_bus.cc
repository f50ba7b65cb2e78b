#include "rt/thread_bus.h"

#include <utility>

#include "common/check.h"

namespace faust::rt {

void ThreadBus::attach(NodeId id, net::Node& node) {
  std::lock_guard lock(boxes_mu_);
  FAUST_CHECK(!stopped_);
  auto [it, inserted] = boxes_.try_emplace(id, std::make_shared<Box>());
  FAUST_CHECK(inserted);  // re-attach under threads would race; fail loudly
  Box& box = *it->second;
  // The box becomes visible to senders the moment boxes_mu_ is released,
  // never earlier: a send() racing this attach either misses the map
  // entry (message dropped, as for any unknown node) or finds a fully
  // initialized box. Setting `node` before the worker starts keeps the
  // worker's first delivery safe.
  box.node = &node;
  box.worker = std::thread([this, &box] { worker_loop(box); });
}

void ThreadBus::detach(NodeId id) {
  std::shared_ptr<Box> box;
  {
    std::lock_guard lock(boxes_mu_);
    auto it = boxes_.find(id);
    if (it == boxes_.end()) return;
    box = std::move(it->second);
    boxes_.erase(it);
  }
  {
    std::lock_guard lock(box->mu);
    box->stopping = true;
  }
  box->cv.notify_all();
  if (box->worker.joinable()) box->worker.join();
}

void ThreadBus::send(NodeId from, NodeId to, Bytes msg) {
  std::shared_ptr<Box> box;
  {
    std::lock_guard lock(boxes_mu_);
    auto it = boxes_.find(to);
    if (it == boxes_.end()) return;  // unknown destination: dropped
    box = it->second;
  }
  count(from, to, msg);
  // The shared_ptr keeps the box alive across the enqueue even if the
  // node detaches (and its worker joins) concurrently; a box marked
  // stopping simply drops the message, matching the unknown-destination
  // case.
  {
    std::lock_guard lock(box->mu);
    if (box->stopping) return;
    box->queue.emplace_back(from, std::move(msg));
  }
  box->cv.notify_one();
}

void ThreadBus::worker_loop(Box& box) {
  std::unique_lock lock(box.mu);
  for (;;) {
    box.cv.wait(lock, [&] { return box.stopping || !box.queue.empty(); });
    if (box.stopping) return;
    auto [from, msg] = std::move(box.queue.front());
    box.queue.pop_front();
    box.busy = true;
    lock.unlock();
    box.node->on_message(from, msg);  // may call send() re-entrantly
    delivered_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    box.busy = false;
    box.cv.notify_all();  // wake drain()
  }
}

void ThreadBus::stop() {
  std::unordered_map<NodeId, std::shared_ptr<Box>> boxes;
  {
    std::lock_guard lock(boxes_mu_);
    if (stopped_) return;
    stopped_ = true;
    boxes.swap(boxes_);
  }
  for (auto& [id, box] : boxes) {
    {
      std::lock_guard lock(box->mu);
      box->stopping = true;
    }
    box->cv.notify_all();
  }
  for (auto& [id, box] : boxes) {
    if (box->worker.joinable()) box->worker.join();
  }
}

void ThreadBus::drain() {
  for (;;) {
    bool all_idle = true;
    {
      std::lock_guard lock(boxes_mu_);
      for (auto& [id, box] : boxes_) {
        std::unique_lock bl(box->mu);
        if (!box->queue.empty() || box->busy) {
          all_idle = false;
          break;
        }
      }
    }
    if (all_idle) return;
    std::this_thread::yield();
  }
}

std::uint64_t ThreadBus::delivered() const {
  return delivered_.load(std::memory_order_relaxed);
}

}  // namespace faust::rt
