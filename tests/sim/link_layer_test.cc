// Differential tests of the per-frame collision verdict (LinkLayer's stamp
// sweep) against the per-receiver predicate it replaced, kept here as the
// oracle: a reception of sender s at receiver r is corrupted iff some
// other transmitter c != r, whose frame overlaps s's in time, reaches r
// with p(c -> r) >= interference_threshold and p(c -> r) >= capture_ratio
// * p(s -> r).
//
// The first group drives LinkLayer directly with random ring contents on
// seeded random FromMatrix and MakeGrid topologies and checks every node's
// verdict, including receivers that are themselves candidates. The second
// group runs whole simulations through Radio (Network) and ShardRadio
// (ShardedEngine at K = 1 and K = 2) and checks every delivery on a
// loss-free link against the oracle applied to the frames that were on
// the air.
#include "sim/link_layer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/network.h"
#include "sim/sharded_engine.h"
#include "sim/topology.h"

namespace scoop::sim {
namespace {

struct Tx {
  NodeId src = 0;
  SimTime start = 0;
  SimTime end = 0;
};

/// The per-receiver predicate the stamp sweep replaced, over every
/// recorded transmission (no ring horizon, no geometric prefilter).
bool OracleCorrupted(const Topology& topo, const RadioOptions& opts,
                     const std::vector<Tx>& on_air, NodeId sender, SimTime start,
                     SimTime end, NodeId receiver) {
  if (!opts.model_collisions) return false;
  double signal = topo.delivery_prob(sender, receiver);
  for (const Tx& tx : on_air) {
    if (tx.src == sender || tx.src == receiver) continue;
    if (tx.end <= start || tx.start >= end) continue;
    double interference = topo.delivery_prob(tx.src, receiver);
    if (interference < opts.interference_threshold) continue;
    if (interference >= opts.capture_ratio * signal) return true;
  }
  return false;
}

/// Random matrix whose probabilities come from a small set, so exact
/// capture-ratio ties (p(c -> r) == 0.5 * p(s -> r)) are common; 0.03
/// sits below the default interference threshold.
Topology RandomMatrix(uint64_t seed, int n) {
  static constexpr double kProbs[] = {0.03, 0.1, 0.2, 0.25, 0.4, 0.5, 0.8, 1.0};
  Rng rng(seed, 0x11CE);
  std::vector<Point> pos(static_cast<size_t>(n));
  std::vector<std::vector<double>> m(static_cast<size_t>(n),
                                     std::vector<double>(static_cast<size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    pos[static_cast<size_t>(i)] = {rng.UniformDouble() * 30, rng.UniformDouble() * 30};
    for (int j = 0; j < n; ++j) {
      if (i == j || rng.UniformDouble() < 0.35) continue;
      m[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          kProbs[rng.UniformInt(0, static_cast<int64_t>(std::size(kProbs)) - 1)];
    }
  }
  return Topology::FromMatrix(std::move(pos), std::move(m));
}

Topology Grid(uint64_t seed, int n) {
  GridTopologyOptions opts;
  opts.num_nodes = n;
  opts.seed = seed;
  return Topology::MakeGrid(opts);
}

/// Fills a LinkLayer with random transmissions and checks the verdict of
/// every receiver for a series of frames against the oracle.
void ExpectStampMatchesOracle(const Topology& topo, const RadioOptions& opts,
                              uint64_t seed) {
  constexpr SimTime kMaxAirtime = 1000;
  LinkTable table(&topo, opts);
  LinkLayer link(&table, kMaxAirtime);
  Rng rng(seed, 0x57A3);
  int n = topo.num_nodes();
  std::vector<Tx> on_air;
  SimTime now = 0;
  int corrupted = 0;
  int clean = 0;
  for (int frame = 0; frame < 400; ++frame) {
    // A burst of transmissions starting now, as the radios record them.
    int burst = static_cast<int>(rng.UniformInt(0, 3));
    for (int b = 0; b < burst; ++b) {
      Tx tx{static_cast<NodeId>(rng.UniformInt(0, n - 1)), now,
            now + rng.UniformInt(100, kMaxAirtime)};
      link.Record(tx.src, tx.start, tx.end);
      on_air.push_back(tx);
    }
    // Evaluate a frame that ended within the last max airtime (the radios
    // evaluate each frame at its end, before pruning).
    std::vector<size_t> ended;
    for (size_t i = 0; i < on_air.size(); ++i) {
      if (on_air[i].end <= now && on_air[i].end > now - kMaxAirtime) ended.push_back(i);
    }
    if (!ended.empty()) {
      const Tx& f = on_air[ended[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ended.size()) - 1))]];
      link.CollectInterferers(f.src, f.start, f.end);
      // Every receiver the delivery walk can ask about: the sender's
      // audible out-neighbors, candidates among them included.
      for (const Topology::Link& l : topo.audible_from(f.src)) {
        NodeId r = l.to;
        double signal = l.prob;
        bool want = OracleCorrupted(topo, opts, on_air, f.src, f.start, f.end, r);
        ASSERT_EQ(link.Corrupted(r, signal), want)
            << "frame " << frame << " sender " << f.src << " receiver " << r;
        (want ? corrupted : clean) += 1;
      }
    }
    now += rng.UniformInt(50, 400);
    link.Prune(now);
  }
  EXPECT_GT(clean, 0);
  if (opts.model_collisions) {
    EXPECT_GT(corrupted, 0) << "no collisions: test is vacuous";
  }
}

RadioOptions WithThreshold(double threshold) {
  RadioOptions opts;
  opts.interference_threshold = threshold;
  return opts;
}

TEST(LinkLayerTest, StampedVerdictMatchesOracleOnRandomMatrices) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Topology topo = RandomMatrix(seed, 24);
    ExpectStampMatchesOracle(topo, RadioOptions{}, seed);
    ExpectStampMatchesOracle(topo, WithThreshold(0.35), seed);
  }
}

TEST(LinkLayerTest, StampedVerdictMatchesOracleOnGrids) {
  for (uint64_t seed : {5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Topology topo = Grid(seed, 196);
    ExpectStampMatchesOracle(topo, RadioOptions{}, seed);
    ExpectStampMatchesOracle(topo, WithThreshold(0.35), seed);
  }
}

TEST(LinkLayerTest, NoVerdictsWithoutCollisionModel) {
  RadioOptions opts;
  opts.model_collisions = false;
  ExpectStampMatchesOracle(RandomMatrix(9, 24), opts, 9);
}

TEST(LinkLayerTest, CaptureRatioTieCorrupts) {
  // Signal 0 -> 2 at 0.8, interferer 1 -> 2 at exactly 0.5 * 0.8 = 0.4:
  // the predicate is >=, so the tie corrupts; 0.25 does not.
  for (double interference : {0.4, 0.25}) {
    std::vector<std::vector<double>> m = {
        {0, 0, 0.8}, {0, 0, interference}, {0, 0, 0}};
    Topology topo = Topology::FromMatrix({{0, 0}, {1, 0}, {2, 0}}, m);
    LinkTable table(&topo, RadioOptions{});
    LinkLayer link(&table, 1000);
    link.Record(0, 0, 500);
    link.Record(1, 100, 600);
    link.CollectInterferers(0, 0, 500);
    EXPECT_EQ(link.Corrupted(2, 0.8), interference == 0.4) << interference;
  }
}

TEST(LinkLayerTest, CandidateReceiverIsCorruptedOnlyByOthers) {
  // Node 1 transmits during 0's frame and is also 0's receiver: its own
  // frame never corrupts its reception (no self-link), but node 2's does.
  std::vector<std::vector<double>> m = {
      {0, 0.5, 0}, {0, 0, 0}, {0, 0.5, 0}};
  Topology topo = Topology::FromMatrix({{0, 0}, {1, 0}, {2, 0}}, m);
  LinkTable table(&topo, RadioOptions{});
  LinkLayer link(&table, 1000);
  link.Record(0, 0, 500);
  link.Record(1, 100, 600);
  link.CollectInterferers(0, 0, 500);
  EXPECT_FALSE(link.Corrupted(1, 0.5));
  link.Record(2, 200, 700);
  link.CollectInterferers(0, 0, 500);
  EXPECT_TRUE(link.Corrupted(1, 0.5));
}

// ---------------------------------------------------------------------------
// Through the radios.

/// Broadcasts on a fixed period with per-node jitter; logs each completed
/// transmission (broadcast send-done fires at the frame's end) and each
/// reception. Logs are per node, so only the owning shard's thread writes.
class BroadcastLogApp : public App {
 public:
  struct Sent {
    uint16_t seq;
    SimTime end;
    int wire_size;
  };
  struct Heard {
    NodeId src;
    uint16_t seq;
  };

  BroadcastLogApp(int count, SimTime period) : count_(count), period_(period) {}

  void OnBoot(Context& ctx) override { Next(ctx); }
  void OnReceive(Context&, const Packet& pkt, const ReceiveInfo&) override {
    heard.push_back({pkt.hdr.link_src, pkt.hdr.seq});
  }
  void OnSnoop(Context&, const Packet&) override {}
  void OnSendDone(Context& ctx, const Packet& pkt, bool success) override {
    if (success) sent.push_back({pkt.hdr.seq, ctx.now(), pkt.WireSize()});
  }

  std::vector<Sent> sent;
  std::vector<Heard> heard;

 private:
  void Next(Context& ctx) {
    if (count_-- <= 0) return;
    BeaconPayload b;
    b.depth = static_cast<uint8_t>(ctx.self());
    ctx.Broadcast(MakePacket(ctx.self(), 0, b));
    SimTime jitter = ctx.rng().UniformInt(0, period_);
    ctx.Schedule(period_ / 2 + jitter, [this, &ctx] { Next(ctx); });
  }

  int count_;
  SimTime period_;
};

/// Radio::Airtime, for recovering a frame's start from its end.
SimTime RadioAirtime(const RadioOptions& opts, int wire_size) {
  double bits = static_cast<double>(opts.link_header_bytes + wire_size) * 8.0;
  return static_cast<SimTime>(bits / opts.bitrate_bps * kSecond);
}

/// Checks the logs of one run: every frame on a loss-free link (p = 1, so
/// the loss draw always passes) reached its receiver iff the receiver was
/// not transmitting and the oracle says it was not corrupted; a delivery
/// on any lossy link implies the same.
void ExpectDeliveriesMatchOracle(const Topology& topo, const RadioOptions& opts,
                                 const std::vector<BroadcastLogApp*>& apps) {
  int n = topo.num_nodes();
  std::vector<Tx> on_air;
  for (NodeId s = 0; s < n; ++s) {
    for (const BroadcastLogApp::Sent& f : apps[s]->sent) {
      on_air.push_back({s, f.end - RadioAirtime(opts, f.wire_size), f.end});
    }
  }
  std::map<std::tuple<NodeId, NodeId, uint16_t>, int> heard;
  for (NodeId r = 0; r < n; ++r) {
    for (const BroadcastLogApp::Heard& h : apps[r]->heard) ++heard[{r, h.src, h.seq}];
  }
  int checked = 0;
  int collided = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (const BroadcastLogApp::Sent& f : apps[s]->sent) {
      SimTime start = f.end - RadioAirtime(opts, f.wire_size);
      for (const Topology::Link& link : topo.audible_from(s)) {
        NodeId r = link.to;
        bool half_duplex = std::any_of(on_air.begin(), on_air.end(), [&](const Tx& t) {
          return t.src == r && t.start < f.end && t.end > start;
        });
        bool corrupted = OracleCorrupted(topo, opts, on_air, s, start, f.end, r);
        int got = heard[{r, s, f.seq}];
        ASSERT_LE(got, 1);
        if (link.prob >= 1.0) {
          ASSERT_EQ(got == 1, !half_duplex && !corrupted)
              << "frame " << s << "/" << f.seq << " at " << r << " half_duplex="
              << half_duplex << " corrupted=" << corrupted;
          ++checked;
          if (corrupted && !half_duplex) ++collided;
        } else if (got == 1) {
          ASSERT_FALSE(half_duplex || corrupted) << "frame " << s << "/" << f.seq << " at " << r;
        }
      }
    }
  }
  EXPECT_GT(checked, 100);
  if (opts.model_collisions) {
    EXPECT_GT(collided, 0) << "no collisions: test is vacuous";
  }
}

constexpr int kFrames = 60;
constexpr SimTime kPeriod = Millis(40);

void RunNetwork(const Topology& topo, const RadioOptions& opts) {
  NetworkOptions no;
  no.radio = opts;
  no.seed = 11;
  Network net(topo, no);
  std::vector<BroadcastLogApp*> apps;
  for (NodeId i = 0; i < topo.num_nodes(); ++i) {
    auto app = std::make_unique<BroadcastLogApp>(kFrames, kPeriod);
    apps.push_back(app.get());
    net.SetApp(i, std::move(app));
  }
  net.Start();
  net.RunUntil(Seconds(30));
  ASSERT_EQ(net.radio().Airtime(40), RadioAirtime(opts, 40));
  ExpectDeliveriesMatchOracle(topo, opts, apps);
}

void RunSharded(const Topology& topo, const RadioOptions& opts, int shards) {
  ShardedEngineOptions so;
  so.radio = opts;
  so.seed = 11;
  so.shards = shards;
  ShardedEngine engine(topo, so);
  std::vector<BroadcastLogApp*> apps;
  for (NodeId i = 0; i < topo.num_nodes(); ++i) {
    auto app = std::make_unique<BroadcastLogApp>(kFrames, kPeriod);
    apps.push_back(app.get());
    engine.SetApp(i, std::move(app));
  }
  engine.Start();
  engine.RunUntil(Seconds(30));
  ExpectDeliveriesMatchOracle(topo, opts, apps);
}

/// Links at exactly 1.0 make the loss draw deterministic; the rest mix
/// strong, tied and sub-threshold interferers. Asymmetric, so hidden
/// terminals (c cannot sense s, yet reaches s's receivers) are common.
Topology LossFreeMix(uint64_t seed, int n) {
  static constexpr double kProbs[] = {0.03, 0.2, 0.4, 0.5, 1.0, 1.0, 1.0};
  Rng rng(seed, 0xD1FF);
  std::vector<Point> pos(static_cast<size_t>(n));
  std::vector<std::vector<double>> m(static_cast<size_t>(n),
                                     std::vector<double>(static_cast<size_t>(n), 0.0));
  for (int i = 0; i < n; ++i) {
    pos[static_cast<size_t>(i)] = {static_cast<double>(i) * 5.0, 0};
    for (int j = 0; j < n; ++j) {
      if (i == j || rng.UniformDouble() < 0.5) continue;
      m[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          kProbs[rng.UniformInt(0, static_cast<int64_t>(std::size(kProbs)) - 1)];
    }
  }
  return Topology::FromMatrix(std::move(pos), std::move(m));
}

struct RadioCase {
  const char* name;
  RadioOptions opts;
};

std::vector<RadioCase> RadioCases() {
  RadioOptions defaults;
  RadioOptions threshold = WithThreshold(0.35);
  RadioOptions tie_ratio;
  tie_ratio.capture_ratio = 0.4;  // 0.4 * 1.0 ties the 0.4 interferers.
  RadioOptions off;
  off.model_collisions = false;
  return {{"default", defaults}, {"threshold", threshold}, {"tie", tie_ratio},
          {"off", off}};
}

TEST(LinkLayerRadioTest, SequentialRadioDeliveriesMatchOracle) {
  for (const RadioCase& c : RadioCases()) {
    for (uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      RunNetwork(LossFreeMix(seed, 12), c.opts);
    }
  }
}

TEST(LinkLayerRadioTest, ShardRadioDeliveriesMatchOracle) {
  for (const RadioCase& c : RadioCases()) {
    for (int shards : {1, 2}) {
      SCOPED_TRACE(std::string(c.name) + " shards " + std::to_string(shards));
      RunSharded(LossFreeMix(3, 12), c.opts, shards);
    }
  }
}

}  // namespace
}  // namespace scoop::sim
