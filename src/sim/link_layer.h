// Channel and link-layer state shared by both radio engines (Radio and
// ShardRadio): the recent-transmissions ring, each node's last two
// transmission spans, the per-frame collision verdicts, and per-link
// duplicate-detection state, plus the delivery walk that runs on them. The
// engines differ only in what they plug into the walk: which receivers
// they own and how they draw link loss. What never changes during a run
// (interferer sets, per-link ACK probabilities, the collision prefilter
// range) lives in a LinkTable built once and shared read-only -- by the
// sharded engine's K shards alike.
//
// Everything is O(N + links). Per-link state is keyed by the link's index
// in the topology's CSR array, so the walk reaches it with no lookup: the
// k-th link of a sender's row is link link_begin(sender) + k.
//
// Collision verdicts are decided once per frame by a stamp sweep. The ring
// walk collects the candidates -- other senders whose transmissions
// overlap the frame -- and, at the first receiver that survives loss and
// half-duplex, each candidate stamps worst[to] = max(worst[to], p) over
// its out-links with p >= interference_threshold. A receiver is corrupted
// iff worst[r] > 0 and worst[r] >= capture_ratio * p(sender -> r): some
// candidate loud enough to interfere at r is at least capture_ratio as
// strong as the signal. That is the per-receiver predicate "any candidate
// c != r in r's interferer set with p(c -> r) >= capture_ratio * signal"
// (a node has no self-link, so a candidate never stamps itself), computed
// once per frame in O(candidates' out-degree) and then read in O(1) per
// receiver. Pure and RNG-free; the next frame resets only the stamped
// entries.
#ifndef SCOOP_SIM_LINK_LAYER_H_
#define SCOOP_SIM_LINK_LAYER_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/node_bitmap.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "fault/link_fault.h"
#include "net/wire.h"
#include "sim/radio_options.h"
#include "sim/topology.h"

namespace scoop::sim {

/// What the delivery walk tells the deliver hook about one reception.
struct Reception {
  /// Broadcast, or unicast to this receiver (else an overheard unicast).
  bool addressed = false;
  /// Addressed, and the same sequence number as the previous addressed
  /// frame on this link: a retransmission whose ACK was lost.
  bool duplicate = false;
  /// Packet::WireSize() of the frame, computed once per frame.
  int wire_size = 0;
};

/// One frame on its way through the delivery walk.
struct WalkFrame {
  NodeId src = kInvalidNodeId;
  NodeId dst = kBroadcastId;  ///< Link destination (kBroadcastId = broadcast).
  uint16_t seq = 0;
  SimTime start = 0;
  SimTime end = 0;
  int wire_size = 0;
};

/// Read-only per-run link tables, derived from the topology and the radio
/// options alone: built once by the engine, then read by every LinkLayer
/// of the run (one per radio, K in the sharded engine).
class LinkTable {
 public:
  LinkTable(const Topology* topology, const RadioOptions& options);

  LinkTable(const LinkTable&) = delete;
  LinkTable& operator=(const LinkTable&) = delete;

  const Topology* topology() const { return topology_; }
  const RadioOptions& options() const { return options_; }

  /// Per-receiver interferer sets at the radio's threshold: the topology's
  /// precomputed sets when the thresholds match, else built here.
  const std::vector<InterfererSet>& interferer_sets() const { return *interferers_; }

  /// ACK delivery probability of link `link` (src -> dst):
  /// p(dst -> src) ^ ack_shortness_exponent.
  double ack_prob(uint32_t link) const { return ack_prob_[link]; }

  /// Squared distance beyond which a transmitter cannot corrupt any
  /// reception of a sender's frame (twice the longest audible link).
  double collide_range2() const { return collide_range2_; }

 private:
  const Topology* topology_;
  RadioOptions options_;
  const std::vector<InterfererSet>* interferers_ = nullptr;
  std::vector<InterfererSet> own_interferers_;
  std::vector<double> ack_prob_;
  double collide_range2_ = 0;
};

class LinkLayer {
 public:
  /// A node's transmission interval.
  struct TxSpan {
    SimTime start = 0;
    SimTime end = 0;
  };

  /// `table` supplies the topology, the radio options and the read-only
  /// per-link tables, and must outlive the layer; `max_airtime` is the
  /// airtime of a maximum-size frame: the ring's overlap and pruning
  /// horizon.
  LinkLayer(const LinkTable* table, SimTime max_airtime);

  LinkLayer(const LinkLayer&) = delete;
  LinkLayer& operator=(const LinkLayer&) = delete;

  // --- Channel occupancy ---

  /// Records a transmission by `src` over [start, end): shifts the node's
  /// span pair and inserts into the start-ordered ring. Starts are
  /// monotone for local transmissions; a mirrored boundary announcement
  /// may carry an older start and is inserted from the tail.
  void Record(NodeId src, SimTime start, SimTime end);

  /// `node`'s last two transmission spans, most recent first. Two
  /// suffice: a node's transmissions are serial, so only its most recent
  /// frame starting before a query window's end can overlap the window --
  /// plus at most one frame starting exactly at the window's end instant.
  const std::array<TxSpan, 2>& spans(NodeId node) const { return node_tx_[node]; }

  /// True iff `node` was itself transmitting at any point in [start,end].
  bool WasTransmitting(NodeId node, SimTime start, SimTime end) const {
    for (const TxSpan& t : node_tx_[node]) {
      if (t.start < end && t.end > start) return true;
    }
    return false;
  }

  /// Advances the ring head past transmissions that can no longer overlap
  /// anything in flight at `now`, compacting the buffer once the dead
  /// prefix dominates.
  void Prune(SimTime now);

  /// Senders loud enough at `node` to trip its carrier sense, at the
  /// radio's interference threshold.
  const InterfererSet& interferers(NodeId node) const { return (*interferers_)[node]; }

  // --- Per-frame collision verdicts ---

  /// Starts a frame: clears the previous frame's stamps and collects the
  /// sources of ring transmissions (other than `sender`'s own) overlapping
  /// [start, end), the only candidates that can corrupt any reception of
  /// this frame. One ring walk per frame; nothing when collisions are not
  /// modeled.
  void CollectInterferers(NodeId sender, SimTime start, SimTime end);

  /// True iff reception at `receiver` of a signal of delivery probability
  /// `signal` is corrupted by a candidate of the current frame. Stamps the
  /// frame on first use.
  bool Corrupted(NodeId receiver, double signal) {
    if (candidates_.empty()) return false;
    if (!stamped_) Stamp();
    double w = worst_[receiver];
    return w > 0.0 && w >= capture_ratio_ * signal;
  }

  // --- Per-link state ---

  /// Link-layer duplicate detection for an addressed frame with sequence
  /// number `seq` on link `link`: true iff the previous addressed frame on
  /// the link carried the same number. -1 = nothing heard yet (distinct
  /// from every 16-bit sequence number, including a wrapped seq of 0).
  bool Latch(uint32_t link, uint16_t seq) {
    int32_t& last = last_seq_[link];
    bool dup = last == seq;
    last = seq;
    return dup;
  }

  /// ACK delivery probability for a unicast from `src` to `dst`:
  /// p(dst -> src) ^ ack_shortness_exponent, precomputed per link; 0 when
  /// `dst` cannot hear `src` (no frame reaches it, so no ACK is drawn).
  double AckProb(NodeId src, NodeId dst) const {
    int64_t link = topology_->LinkIndex(src, dst);
    return link < 0 ? 0.0 : table_->ack_prob(static_cast<uint32_t>(link));
  }

  // --- The delivery walk ---

  /// Walks `f.src`'s audible out-links in ascending receiver id. A
  /// receiver `r` must pass `hears(r)` (ownership, liveness), the
  /// link-loss draw `draw(r, p)` on the link probability scaled by
  /// `fault` (null = unscaled), half duplex and the collision verdict;
  /// then `deliver(r, reception)` runs. Returns true iff `f.dst` received
  /// the frame.
  template <typename Hears, typename Draw, typename Deliver>
  bool Walk(const WalkFrame& f, const fault::LinkFaultChannel* fault, Hears&& hears,
            Draw&& draw, Deliver&& deliver) {
    CollectInterferers(f.src, f.start, f.end);
    std::span<const Topology::Link> row = topology_->audible_from(f.src);
    const uint32_t first = topology_->link_begin(f.src);
    bool dst_received = false;
    for (uint32_t k = 0; k < row.size(); ++k) {
      const Topology::Link& link = row[k];
      NodeId r = link.to;
      if (!hears(r)) continue;
      double p = link.prob;
      if (fault != nullptr) p *= fault->Scale(f.src, r, f.end);
      if (!draw(r, p)) continue;                          // Link loss.
      if (WasTransmitting(r, f.start, f.end)) continue;   // Half duplex.
      if (Corrupted(r, link.prob)) continue;              // Collision.
      Reception rx;
      rx.addressed = f.dst == kBroadcastId || f.dst == r;
      rx.duplicate = rx.addressed && Latch(first + k, f.seq);
      rx.wire_size = f.wire_size;
      if (f.dst == r) dst_received = true;
      deliver(r, rx);
    }
    return dst_received;
  }

 private:
  struct Transmission {
    NodeId src = kInvalidNodeId;
    SimTime start = 0;
    SimTime end = 0;
  };

  void Stamp();
  void ClearStamps();

  const LinkTable* table_;
  const Topology* topology_;
  const std::vector<InterfererSet>* interferers_;  ///< table_->interferer_sets().
  double interference_threshold_;
  double capture_ratio_;
  bool model_collisions_;
  SimTime max_airtime_;
  double collide_range2_;  ///< table_->collide_range2().

  std::vector<std::array<TxSpan, 2>> node_tx_;
  /// Recent + active transmissions in start order; overlap queries walk
  /// backward from the tail and stop at the first entry older than one max
  /// airtime before the window.
  std::vector<Transmission> ring_;
  size_t ring_head_ = 0;  ///< First live ring entry (amortized pruning).

  std::vector<NodeId> candidates_;
  /// Loudest stamped interference per receiver; 0 = none. Only the
  /// candidates' out-neighbors are non-zero, and only while stamped_.
  std::vector<double> worst_;
  bool stamped_ = false;

  std::vector<int32_t> last_seq_;  ///< Per link; -1 = nothing heard yet.
};

}  // namespace scoop::sim

#endif  // SCOOP_SIM_LINK_LAYER_H_
