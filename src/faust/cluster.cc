#include "faust/cluster.h"

#include <filesystem>

#include "common/check.h"
#include "common/rng.h"

namespace faust {

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      owned_sched_(config.executor ? nullptr : std::make_unique<sim::Scheduler>()),
      exec_(config.executor ? config.executor : owned_sched_.get()),
      sim_(dynamic_cast<sim::Scheduler*>(exec_)) {
  FAUST_CHECK(config_.n >= 1);
  Rng root(config_.seed);
  if (config_.transport != nullptr) {
    // External (socket) transport: the server side lives elsewhere. The
    // fork is still drawn so the mailbox/signature seeds — and therefore
    // every client-side random draw — match the owned-network assembly
    // bit for bit (the process-vs-deterministic differential relies on
    // it).
    FAUST_CHECK(config_.executor != nullptr);
    FAUST_CHECK(!config_.with_server);
    FAUST_CHECK(!config_.cache.with_node);
    FAUST_CHECK(config_.durability_dir.empty());
    (void)root.fork();
  } else {
    net_ = std::make_unique<net::Network>(*exec_, root.fork(), config_.delay);
  }
  mail_ = std::make_unique<net::Mailbox>(*exec_, root.fork(), config_.mail_min_delay,
                                         config_.mail_max_delay);
  sigs_ = crypto::make_hmac_scheme(config_.n, root.next_u64());
  if (config_.with_server) {
    if (durable()) {
      std::filesystem::create_directories(config_.durability_dir);
      pserver_ = std::make_unique<storage::PersistentServer>(
          config_.n, *net_, config_.durability_dir, config_.durability);
    } else {
      server_ = std::make_unique<ustor::Server>(config_.n, *net_);
    }
  }
  if (config_.cache.enabled && config_.cache.with_node) {
    cache_node_ = std::make_unique<cache::CacheNode>(cache::kCacheNodeId, *net_, *exec_,
                                                     config_.n, config_.cache);
  }
  clients_.reserve(static_cast<std::size_t>(config_.n));
  for (ClientId i = 1; i <= config_.n; ++i) {
    clients_.push_back(std::make_unique<FaustClient>(i, config_.n, sigs_, transport(),
                                                     *mail_, *exec_, config_.faust));
  }
}

net::Network& Cluster::net() {
  FAUST_CHECK(net_ != nullptr);  // external-transport mode has no Network
  return *net_;
}

const net::Network& Cluster::net() const {
  FAUST_CHECK(net_ != nullptr);
  return *net_;
}

net::Transport& Cluster::transport() {
  if (config_.transport != nullptr) return *config_.transport;
  return *net_;
}

bool Cluster::run_sync(const std::function<void()>& body) {
  if (simulated()) {
    body();
    return true;
  }
  return exec::post_sync(*exec_, body);
}

sim::Scheduler& Cluster::sched() {
  FAUST_CHECK(sim_ != nullptr);  // stepping makes no sense on a threaded runtime
  return *sim_;
}

FaustClient& Cluster::client(ClientId i) {
  FAUST_CHECK(i >= 1 && i <= config_.n);
  return *clients_[static_cast<std::size_t>(i - 1)];
}

Timestamp Cluster::write(ClientId i, std::string_view value, std::size_t step_budget) {
  sim::Scheduler& sched = this->sched();
  const int rec =
      recorder_.begin(i, ustor::OpCode::kWrite, i, to_bytes(value), sched.now());
  bool done = false;
  Timestamp out = 0;
  client(i).write(to_bytes(value), [&](Timestamp t) {
    done = true;
    out = t;
  });
  std::size_t steps = 0;
  while (!done && steps < step_budget && sched.step()) ++steps;
  if (done) recorder_.end(rec, sched.now(), out);
  return out;
}

ustor::Value Cluster::read(ClientId i, ClientId j, bool* completed, std::size_t step_budget) {
  sim::Scheduler& sched = this->sched();
  const int rec = recorder_.begin(i, ustor::OpCode::kRead, j, std::nullopt, sched.now());
  bool done = false;
  Timestamp ts = 0;
  ustor::Value out;
  client(i).read(j, [&](const ustor::Value& v, Timestamp t) {
    done = true;
    ts = t;
    out = v;
  });
  std::size_t steps = 0;
  while (!done && steps < step_budget && sched.step()) ++steps;
  if (done) recorder_.end(rec, sched.now(), ts, out);
  if (completed != nullptr) *completed = done;
  return out;
}

void Cluster::crash_server() {
  FAUST_CHECK(durable());
  FAUST_CHECK(pserver_ != nullptr);
  // Fence first: kill() bumps the server's delivery epoch, so anything in
  // flight to or from the pre-crash incarnation is dropped — a stale
  // REPLY arriving after restart would otherwise look unsolicited and
  // fail the client. The PersistentServer destructor detaches the node.
  net_->kill(kServerNode);
  pserver_.reset();
}

void Cluster::restart_server() {
  FAUST_CHECK(durable());
  FAUST_CHECK(pserver_ == nullptr);
  // Constructor-time recovery + net attach; attach() revives the killed
  // node by bumping its epoch once more, so messages queued while it was
  // down are dropped too.
  pserver_ = std::make_unique<storage::PersistentServer>(
      config_.n, *net_, config_.durability_dir, config_.durability);
  reconnect_clients();
}

void Cluster::reconnect_clients() {
  for (auto& c : clients_) c->reconnect();
}

bool Cluster::any_failed() const {
  for (const auto& c : clients_) {
    if (c->failed()) return true;
  }
  return false;
}

bool Cluster::all_failed() const {
  for (const auto& c : clients_) {
    if (!c->failed()) return false;
  }
  return true;
}

}  // namespace faust
