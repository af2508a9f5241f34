// Link-layer duplicate detection in both engines' delivery walk. A
// reception is a duplicate iff it is addressed (broadcast, or unicast to
// the receiver) and carries the same sequence number as the previous
// addressed frame the receiver heard from the same link sender. Every test
// checks info.duplicate against that rule, kept by the receiving app
// itself, on the sequential engine and the sharded engine at K = 1 and
// K = 2.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault_plan.h"
#include "sim/network.h"
#include "sim/sharded_engine.h"
#include "sim/topology.h"

namespace scoop::sim {
namespace {

/// Sends `count` frames on a jittered period -- broadcasts, unicasts to
/// `unicast_to`, or (mixed) a random choice of both toward random audible
/// neighbors -- and checks every addressed reception's duplicate flag
/// against its own record of the last sequence number per link sender,
/// which survives crashes and reboots like the link layer's.
class DupCheckApp : public App {
 public:
  enum class Mode { kBroadcast, kUnicast, kMixed };

  DupCheckApp(const Topology* topo, Mode mode, int count, SimTime period,
              NodeId unicast_to = kInvalidNodeId)
      : topo_(topo), mode_(mode), count_(count), period_(period), unicast_to_(unicast_to) {}

  void OnBoot(Context& ctx) override {
    if (count_ > 0) ctx.Schedule(period_, [this, &ctx] { Next(ctx); });
  }

  void OnReceive(Context&, const Packet& pkt, const ReceiveInfo& info) override {
    NodeId src = pkt.hdr.link_src;
    auto [it, fresh] = last_seq_.try_emplace(src, pkt.hdr.seq);
    bool want = !fresh && it->second == pkt.hdr.seq;
    it->second = pkt.hdr.seq;
    if (info.duplicate != want) ++mismatches;
    if (info.duplicate) ++duplicates;
    (pkt.hdr.link_dst == kBroadcastId ? broadcasts_heard : unicasts_heard) += 1;
    if (prev_seq_ == 65535 && pkt.hdr.seq == 0 && !info.duplicate) ++wraps_clean;
    prev_seq_ = pkt.hdr.seq;
  }

  void OnSnoop(Context&, const Packet&) override {}
  void OnSendDone(Context&, const Packet&, bool) override {}

  int mismatches = 0;
  int duplicates = 0;
  int broadcasts_heard = 0;
  int unicasts_heard = 0;
  int wraps_clean = 0;

 private:
  void Next(Context& ctx) {
    if (sent_++ >= count_) return;
    BeaconPayload b;
    b.depth = 1;
    Packet pkt = MakePacket(ctx.self(), 0, b);
    bool unicast = mode_ == Mode::kUnicast ||
                   (mode_ == Mode::kMixed && ctx.rng().UniformDouble() < 0.6);
    auto row = topo_->audible_from(ctx.self());
    if (!unicast || row.empty()) {
      ctx.Broadcast(std::move(pkt));
    } else {
      NodeId dst = unicast_to_ != kInvalidNodeId
                       ? unicast_to_
                       : row[static_cast<size_t>(ctx.rng().UniformInt(
                               0, static_cast<int64_t>(row.size()) - 1))].to;
      ctx.Unicast(dst, std::move(pkt));
    }
    ctx.Schedule(period_ / 2 + ctx.rng().UniformInt(0, period_), [this, &ctx] { Next(ctx); });
  }

  const Topology* topo_;
  Mode mode_;
  int count_;
  SimTime period_;
  NodeId unicast_to_;
  int sent_ = 0;
  std::map<NodeId, uint16_t> last_seq_;
  int prev_seq_ = -1;
};

using AppFactory = std::unique_ptr<DupCheckApp> (*)(const Topology*, NodeId);

struct Totals {
  int mismatches = 0;
  int duplicates = 0;
  int broadcasts = 0;
  int unicasts = 0;
  int wraps_clean = 0;
};

Totals Sum(const std::vector<DupCheckApp*>& apps) {
  Totals t;
  for (const DupCheckApp* a : apps) {
    t.mismatches += a->mismatches;
    t.duplicates += a->duplicates;
    t.broadcasts += a->broadcasts_heard;
    t.unicasts += a->unicasts_heard;
    t.wraps_clean += a->wraps_clean;
  }
  return t;
}

/// Runs every node's app on `engine` (0 = sequential Network, K >= 1 =
/// ShardedEngine at K shards) until `until`, replaying `plan`'s crash and
/// reboot events the way the harness does, and returns the apps' totals.
Totals RunEngine(int engine, const Topology& topo, AppFactory make, SimTime until,
                 const fault::FaultPlan* plan = nullptr) {
  std::vector<DupCheckApp*> apps;
  auto install = [&](auto&& set_app) {
    for (NodeId id = 0; id < topo.num_nodes(); ++id) {
      std::unique_ptr<DupCheckApp> app = make(&topo, id);
      apps.push_back(app.get());
      set_app(id, std::move(app));
    }
  };
  if (engine == 0) {
    NetworkOptions opts;
    opts.seed = 5;
    Network net(topo, opts);
    install([&](NodeId id, std::unique_ptr<App> app) { net.SetApp(id, std::move(app)); });
    if (plan != nullptr) {
      for (const fault::FaultEvent& ev : plan->events) {
        net.queue().ScheduleAt(ev.at, [&net, ev] {
          bool up = ev.kind == fault::FaultKind::kReboot;
          net.SetNodeAlive(ev.node, up);
          if (up) {
            net.app(ev.node)->OnReboot(net.context(ev.node));
          } else {
            net.app(ev.node)->OnCrash(net.context(ev.node));
          }
        });
      }
    }
    net.Start();
    net.RunUntil(until);
    return Sum(apps);  // Apps die with the network.
  }
  ShardedEngineOptions opts;
  opts.seed = 5;
  opts.shards = engine;
  ShardedEngine eng(topo, opts);
  install([&](NodeId id, std::unique_ptr<App> app) { eng.SetApp(id, std::move(app)); });
  if (plan != nullptr) {
    for (const fault::FaultEvent& ev : plan->events) {
      eng.ScheduleFault(ev.at, ev.node, [&eng, ev] {
        bool up = ev.kind == fault::FaultKind::kReboot;
        eng.FaultSetAlive(ev.node, up);
        if (up) {
          eng.FaultReboot(ev.node);
        } else {
          eng.FaultCrash(ev.node);
        }
      });
    }
  }
  eng.Start();
  eng.RunUntil(until);
  return Sum(apps);
}

constexpr int kEngines[] = {0, 1, 2};

std::string EngineName(int engine) {
  return engine == 0 ? "sequential" : "sharded K=" + std::to_string(engine);
}

/// 0 -> 1 perfect, 1 -> 0 weak: frames arrive, ACKs mostly do not.
Topology LostAckPair() {
  return Topology::FromMatrix({{0, 0}, {5, 0}}, {{0, 1.0}, {0.1, 0}});
}

TEST(DuplicateDetectionTest, RetransmissionAfterLostAckIsFlagged) {
  Topology topo = LostAckPair();
  AppFactory make = [](const Topology* t, NodeId id) {
    return std::make_unique<DupCheckApp>(t, DupCheckApp::Mode::kUnicast, id == 0 ? 50 : 0,
                                         Millis(300), NodeId{1});
  };
  for (int engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    Totals t = RunEngine(engine, topo, make, Seconds(60));
    EXPECT_EQ(t.mismatches, 0);
    EXPECT_GT(t.duplicates, 10);
    EXPECT_GT(t.unicasts, 50);
  }
}

TEST(DuplicateDetectionTest, SequenceWrapIsNotADuplicate) {
  // 65,540 broadcasts over a perfect link: the per-sender sequence number
  // wraps 65535 -> 0, and the wrapped 0 is a new frame.
  Topology topo = Topology::FromMatrix({{0, 0}, {5, 0}}, {{0, 1.0}, {1.0, 0}});
  AppFactory make = [](const Topology* t, NodeId id) {
    return std::make_unique<DupCheckApp>(t, DupCheckApp::Mode::kBroadcast,
                                         id == 0 ? 65540 : 0, Millis(20));
  };
  for (int engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    Totals t = RunEngine(engine, topo, make, Seconds(2000));
    EXPECT_EQ(t.broadcasts, 65540);
    EXPECT_EQ(t.wraps_clean, 1);
    EXPECT_EQ(t.duplicates, 0);
    EXPECT_EQ(t.mismatches, 0);
  }
}

/// Random asymmetric mesh with weak reverse links, so ACKs get lost.
Topology LossyMesh(uint64_t seed, int n) {
  Rng rng(seed, 0xD0B);
  std::vector<Point> pos(static_cast<size_t>(n));
  std::vector<std::vector<double>> m(static_cast<size_t>(n),
                                     std::vector<double>(static_cast<size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    pos[static_cast<size_t>(i)] = {static_cast<double>(i) * 4.0, 0};
    for (int j = 0; j < n; ++j) {
      if (i == j || rng.UniformDouble() < 0.4) continue;
      m[static_cast<size_t>(i)][static_cast<size_t>(j)] = 0.15 + 0.85 * rng.UniformDouble();
    }
  }
  return Topology::FromMatrix(std::move(pos), std::move(m));
}

TEST(DuplicateDetectionTest, BroadcastAndUnicastSharePerLinkState) {
  // Every node interleaves broadcasts and unicasts: both kinds update and
  // are checked against the same per-link record; overheard unicasts
  // (snoops) touch neither.
  Topology topo = LossyMesh(3, 10);
  AppFactory make = [](const Topology* t, NodeId) {
    return std::make_unique<DupCheckApp>(t, DupCheckApp::Mode::kMixed, 40, Millis(250));
  };
  for (int engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    Totals t = RunEngine(engine, topo, make, Seconds(60));
    EXPECT_EQ(t.mismatches, 0);
    EXPECT_GT(t.duplicates, 0);
    EXPECT_GT(t.broadcasts, 0);
    EXPECT_GT(t.unicasts, 0);
  }
}

TEST(DuplicateDetectionTest, CrashRebootKeepsPerLinkState) {
  // A crash/reboot FaultPlan with short downtimes: retransmissions
  // straddle reboots, and the rebooted receiver still flags them, because
  // link-layer state is not reset by a reboot. The duplicate count is
  // pinned to the one the per-host duplicate tables produced before
  // duplicate detection moved into the delivery walk.
  Topology topo = LossyMesh(4, 10);
  fault::FaultConfig config;
  config.reboot_fraction = 0.4;
  config.reboot_time = Seconds(4);
  config.reboot_wave_count = 30;
  config.reboot_wave_interval = Millis(900);
  config.reboot_downtime = Millis(60);
  fault::FaultPlan plan =
      fault::BuildFaultPlan(config, fault::LegacyCrashWaves{}, topo, topo.num_nodes(), 9);
  ASSERT_GE(plan.events.size(), 10u);
  AppFactory make = [](const Topology* t, NodeId) {
    return std::make_unique<DupCheckApp>(t, DupCheckApp::Mode::kMixed, 150, Millis(200));
  };
  // {duplicates, broadcasts heard, unicasts heard}: the sharded engine
  // draws from keyed streams, so its counts differ from the sequential
  // engine's but not across K.
  const int want[][3] = {{861, 1337, 1649}, {623, 1208, 1348}, {623, 1208, 1348}};
  for (int engine : kEngines) {
    SCOPED_TRACE(EngineName(engine));
    Totals t = RunEngine(engine, topo, make, Seconds(60), &plan);
    EXPECT_EQ(t.mismatches, 0);
    EXPECT_EQ(t.duplicates, want[engine][0]);
    EXPECT_EQ(t.broadcasts, want[engine][1]);
    EXPECT_EQ(t.unicasts, want[engine][2]);
  }
}

}  // namespace
}  // namespace scoop::sim
