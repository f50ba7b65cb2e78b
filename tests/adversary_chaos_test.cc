// Every server class runs one message path (DESIGN.md D10): the range
// checks, the piggybacked COMMIT, duplicate suppression and parking of
// ustor::Server hold for the durable server and the five adversaries too.
//
//   * Ids outside 1..n never reach any server's state: a SUBMIT naming a
//     target past n, an advertised read of register 0 and a COMMIT from
//     node n+1 are dropped, and the next honest op completes.
//   * Duplication and reordering are timing faults for adversaries as for
//     the correct server. A non-attacking adversary completes every op
//     without fail_i under a D10 storm, and each attack is detected
//     exactly as on a clean fabric — the storm neither hides an attack
//     nor adds misbehaviour the attack does not intend.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adversary/delta_tamper_server.h"
#include "adversary/forking_server.h"
#include "adversary/misc_servers.h"
#include "adversary/tamper_server.h"
#include "common/rng.h"
#include "crypto/signature.h"
#include "faust/cluster.h"
#include "net/network.h"
#include "sim/scheduler.h"
#include "storage/persistent_server.h"
#include "ustor/client.h"
#include "ustor/server.h"

namespace faust {
namespace {

using ServerFactory = std::function<std::unique_ptr<net::Node>(int n, net::Transport&)>;

struct NamedServer {
  std::string name;
  ServerFactory make;
};

struct TempDir {
  std::string path;
  TempDir() {
    path = std::string(::testing::TempDir()) + "/faust_adv_chaos_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

/// The seven server classes, none of them attacking within the ops the
/// range test runs.
std::vector<NamedServer> all_servers(const std::string& dir) {
  return {
      {"Server",
       [](int n, net::Transport& t) { return std::make_unique<ustor::Server>(n, t); }},
      {"PersistentServer",
       [dir](int n, net::Transport& t) {
         return std::make_unique<storage::PersistentServer>(n, t, dir,
                                                            storage::DurabilityOptions{});
       }},
      {"ForkingServer",
       [](int n, net::Transport& t) {
         return std::make_unique<adversary::ForkingServer>(n, t);
       }},
      {"TamperServer",
       [](int n, net::Transport& t) {
         return std::make_unique<adversary::TamperServer>(n, t, adversary::Tamper::kValue,
                                                          /*victim=*/2, /*fire_on_op=*/3);
       }},
      {"DeltaTamperServer",
       [](int n, net::Transport& t) {
         return std::make_unique<adversary::DeltaTamperServer>(
             n, t, adversary::DeltaTamper::kForgedRoot, /*victim=*/2, /*fire_on_read=*/2);
       }},
      {"CommitDroppingServer",
       [](int n, net::Transport& t) {
         return std::make_unique<adversary::CommitDroppingServer>(n, t);
       }},
      {"SilencingServer",
       [](int n, net::Transport& t) {
         return std::make_unique<adversary::SilencingServer>(n, t, /*serve_ops=*/100);
       }},
  };
}

// --- Range checks -------------------------------------------------------------

TEST(ServerRange, IdsOutsideTheClientRangeAreDroppedByEveryServer) {
  constexpr int kN = 2;
  TempDir dir;
  for (const NamedServer& s : all_servers(dir.path)) {
    SCOPED_TRACE(s.name);
    sim::Scheduler sched;
    net::Network net(sched, Rng(5), net::DelayModel{1, 3});
    auto sigs = crypto::make_hmac_scheme(kN);
    const std::unique_ptr<net::Node> server = s.make(kN, net);
    ustor::Client c1(1, kN, sigs, net);
    ustor::Client c2(2, kN, sigs, net);

    const auto inv = [](ClientId i, ustor::OpCode oc, ClientId j) {
      return ustor::InvocationTuple{i, oc, j, to_bytes("sigma")};
    };
    const Bytes sig = to_bytes("delta");
    server->on_message(1, ustor::encode_submit(9, inv(1, ustor::OpCode::kRead, kN + 1),
                                               std::nullopt, sig));
    server->on_message(1, ustor::encode_submit_read_base(
                              9, inv(1, ustor::OpCode::kRead, 0), 1, crypto::Hash{}, sig));
    server->on_message(kN + 1, ustor::encode(ustor::CommitMessage{
                                   ustor::Version(kN), to_bytes("phi"), to_bytes("psi")}));
    sched.run();

    bool wrote = false;
    c1.writex(to_bytes("honest"), [&wrote](const ustor::WriteResult&) { wrote = true; });
    sched.run();
    ustor::Value got;
    c2.readx(1, [&got](const ustor::ReadResult& r) { got = r.value; });
    sched.run();
    EXPECT_TRUE(wrote);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(to_string(*got), "honest");
    EXPECT_FALSE(c1.failed());
    EXPECT_FALSE(c2.failed());
  }
}

// --- D10 duplication and reordering -------------------------------------------

constexpr int kN = 3;
constexpr int kOps = 40;
constexpr std::size_t kStepBudget = 200'000;

using ClusterServer = std::function<std::unique_ptr<net::Node>(Cluster&)>;

/// A FAUST deployment with an attached server and, when `storm`, the D10
/// duplication/reordering plan on its fabric.
std::unique_ptr<Cluster> make_cluster(std::uint64_t seed, bool storm) {
  ClusterConfig cfg;
  cfg.n = kN;
  cfg.seed = seed;
  cfg.with_server = false;
  auto cl = std::make_unique<Cluster>(cfg);
  if (storm) {
    net::FaultPlan plan;
    plan.duplicate = 0.25;
    plan.reorder = 0.3;
    cl->net().set_fault_plan(plan);
  }
  return cl;
}

/// Alternating writes and reads: client 1 + (k/2) mod n writes, then
/// reads the next client's register, so its write's COMMIT and the read's
/// SUBMIT are in flight together and reordering can swap them. Stops at
/// the first op that does not complete; `before_op(k)` runs ahead of op k.
int run_ops(Cluster& cl, const std::function<void(int)>& before_op = nullptr) {
  int completed = 0;
  for (int k = 0; k < kOps; ++k) {
    if (before_op) before_op(k);
    const ClientId i = 1 + (k / 2) % kN;
    bool ok = false;
    if (k % 2 == 0) {
      ok = cl.write(i, "v" + std::to_string(k), kStepBudget) > 0;
    } else {
      cl.read(i, 1 + i % kN, &ok, kStepBudget);
    }
    if (!ok) break;
    ++completed;
  }
  return completed;
}

TEST(AdversaryChaos, NonAttackingServersCompleteEveryOpUnderDuplicationAndReordering) {
  const std::vector<std::pair<std::string, ClusterServer>> controls = {
      {"Server", [](Cluster& cl) { return std::make_unique<ustor::Server>(kN, cl.net()); }},
      {"ForkingServer (no fork)",
       [](Cluster& cl) { return std::make_unique<adversary::ForkingServer>(kN, cl.net()); }},
      {"TamperServer (kNone)",
       [](Cluster& cl) {
         return std::make_unique<adversary::TamperServer>(kN, cl.net(), adversary::Tamper::kNone,
                                                          /*victim=*/2);
       }},
      {"DeltaTamperServer (kNone)",
       [](Cluster& cl) {
         return std::make_unique<adversary::DeltaTamperServer>(
             kN, cl.net(), adversary::DeltaTamper::kNone, /*victim=*/2);
       }},
      {"SilencingServer (before silence)",
       [](Cluster& cl) {
         return std::make_unique<adversary::SilencingServer>(kN, cl.net(),
                                                             /*serve_ops=*/1'000'000);
       }},
  };
  for (const auto& [name, make] : controls) {
    std::uint64_t duplicated = 0, reordered = 0;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(name + ", seed " + std::to_string(seed));
      auto cl = make_cluster(seed, /*storm=*/true);
      const auto server = make(*cl);
      EXPECT_EQ(run_ops(*cl), kOps);
      cl->run_for(5'000);
      EXPECT_FALSE(cl->any_failed());
      duplicated += cl->net().chaos().duplicated;
      reordered += cl->net().chaos().reordered;
    }
    EXPECT_GT(duplicated, 0u) << name;
    EXPECT_GT(reordered, 0u) << name << ": some SUBMIT must overtake its COMMIT";
  }
}

/// How an attack ended: per client, the FAUST reason and the USTOR cause.
struct Outcome {
  std::vector<std::optional<FailureReason>> reasons;
  std::vector<ustor::FailCause> causes;
};

Outcome outcome_of(Cluster& cl) {
  Outcome out;
  for (ClientId i = 1; i <= kN; ++i) {
    out.reasons.push_back(cl.client(i).failure_reason());
    out.causes.push_back(cl.client(i).engine().fail_cause());
  }
  return out;
}

TEST(AdversaryChaos, EachAttackIsDetectedAsOnACleanFabric) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (const bool storm : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (storm ? ", storm" : ", clean"));

      {
        // A fork: client 3 is split off into a frozen world after op 10.
        // USTOR sees nothing; FAUST's version exchange catches it.
        auto cl = make_cluster(seed, storm);
        adversary::ForkingServer server(kN, cl->net());
        run_ops(*cl, [&](int k) {
          if (k == 10) server.split(3);
        });
        cl->run_for(200'000);
        const Outcome o = outcome_of(*cl);
        EXPECT_TRUE(cl->all_failed());
        std::set<FailureReason> reasons;
        for (const auto& r : o.reasons) {
          if (r.has_value()) reasons.insert(*r);
        }
        EXPECT_TRUE(reasons.count(FailureReason::kIncomparableVersions) > 0);
        EXPECT_EQ(reasons.count(FailureReason::kUstorDetected), 0u);
        for (const ustor::FailCause c : o.causes) EXPECT_EQ(c, ustor::FailCause::kNone);
      }
      {
        // A Tamper mode: the victim's 5th op carries a corrupted COMMIT
        // signature of SVER[c].
        auto cl = make_cluster(seed, storm);
        adversary::TamperServer server(kN, cl->net(), adversary::Tamper::kCommitSig,
                                       /*victim=*/2, /*fire_on_op=*/5);
        run_ops(*cl);
        EXPECT_TRUE(server.fired());
        EXPECT_EQ(cl->client(2).failure_reason(), FailureReason::kUstorDetected);
        EXPECT_EQ(cl->client(2).engine().fail_cause(), ustor::FailCause::kBadCommitSignature);
      }
      {
        // A DeltaTamper mode: the victim's first advertised-base read is
        // answered with splices its DATA signature never covered. The
        // victim rejects them, falls back to a full read and completes —
        // a delta mismatch is not evidence, so no fail_i.
        auto cl = make_cluster(seed, storm);
        adversary::DeltaTamperServer server(kN, cl->net(), adversary::DeltaTamper::kForgedRoot,
                                            /*victim=*/2, /*fire_on_read=*/1);
        EXPECT_EQ(run_ops(*cl), kOps);
        cl->run_for(5'000);
        EXPECT_TRUE(server.fired());
        EXPECT_GE(cl->client(2).engine().delta_fallbacks(), 1u);
        EXPECT_FALSE(cl->any_failed());
      }
      {
        // Commit dropping: the committing client's next reply cannot
        // extend its own version (Algorithm 1 line 36).
        auto cl = make_cluster(seed, storm);
        adversary::CommitDroppingServer server(kN, cl->net());
        run_ops(*cl);
        cl->run_for(5'000);
        EXPECT_EQ(cl->client(1).failure_reason(), FailureReason::kUstorDetected);
        EXPECT_EQ(cl->client(1).engine().fail_cause(), ustor::FailCause::kVersionRegression);
      }
    }
  }
}

}  // namespace
}  // namespace faust
