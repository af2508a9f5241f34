#include "sim/link_layer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace scoop::sim {

LinkTable::LinkTable(const Topology* topology, const RadioOptions& options)
    : topology_(topology), options_(options), ack_prob_(topology->num_links(), 0.0) {
  // The topology precomputes interferer sets at its default threshold; a
  // radio configured with a different threshold builds matching sets once
  // here. Either way carrier sense reads one resolved pointer.
  if (options.interference_threshold == Topology::kInterferenceThreshold) {
    interferers_ = &topology->interferer_sets();
  } else {
    own_interferers_ = topology->BuildInterfererSets(options.interference_threshold);
    interferers_ = &own_interferers_;
  }
  // Geometric collision prefilter: an interferer must be within audible
  // range of a receiver, and every receiver is within audible range of
  // the sender, so only transmitters within twice the longest audible
  // link can corrupt any reception of a frame. Conservative, so verdicts
  // are unchanged. The same pass precomputes every link's ACK probability
  // (the reverse link's delivery, boosted for the short ACK frame).
  double max_d2 = 0;
  for (NodeId i = 0; i < topology->num_nodes(); ++i) {
    const Point& a = topology->position(i);
    std::span<const Topology::Link> row = topology->audible_from(i);
    for (size_t k = 0; k < row.size(); ++k) {
      const Point& b = topology->position(row[k].to);
      double dx = a.x - b.x;
      double dy = a.y - b.y;
      max_d2 = std::max(max_d2, dx * dx + dy * dy);
      ack_prob_[topology->link_begin(i) + k] = std::pow(
          topology->delivery_prob(row[k].to, i), options.ack_shortness_exponent);
    }
  }
  collide_range2_ = 4.0 * max_d2;  // (2 * max audible distance)^2.
}

LinkLayer::LinkLayer(const LinkTable* table, SimTime max_airtime)
    : table_(table),
      topology_(table_->topology()),
      interferers_(&table_->interferer_sets()),
      interference_threshold_(table_->options().interference_threshold),
      capture_ratio_(table_->options().capture_ratio),
      model_collisions_(table_->options().model_collisions),
      max_airtime_(max_airtime),
      collide_range2_(table_->collide_range2()),
      node_tx_(static_cast<size_t>(topology_->num_nodes())),
      worst_(static_cast<size_t>(topology_->num_nodes()), 0.0),
      last_seq_(topology_->num_links(), -1) {}

void LinkLayer::Record(NodeId src, SimTime start, SimTime end) {
  std::array<TxSpan, 2>& spans = node_tx_[src];
  spans[1] = spans[0];
  spans[0] = TxSpan{start, end};
  size_t pos = ring_.size();
  ring_.push_back(Transmission{src, start, end});
  while (pos > ring_head_ && ring_[pos - 1].start > start) {
    ring_[pos] = ring_[pos - 1];
    --pos;
  }
  ring_[pos] = Transmission{src, start, end};
}

void LinkLayer::Prune(SimTime now) {
  // Anything that started more than five max-length frames ago can no
  // longer overlap a transmission still in flight.
  SimTime horizon = now - 4 * max_airtime_;
  while (ring_head_ < ring_.size() && ring_[ring_head_].start + max_airtime_ < horizon) {
    ++ring_head_;
  }
  // Amortized O(1): drop the dead prefix once it dominates the buffer.
  if (ring_head_ >= 64 && ring_head_ * 2 >= ring_.size()) {
    ring_.erase(ring_.begin(), ring_.begin() + static_cast<ptrdiff_t>(ring_head_));
    ring_head_ = 0;
  }
}

void LinkLayer::CollectInterferers(NodeId sender, SimTime start, SimTime end) {
  ClearStamps();
  candidates_.clear();
  if (!model_collisions_) return;
  // Ring entries are in start order; anything whose start is more than one
  // max airtime before the window cannot reach into it.
  const Point& s = topology_->position(sender);
  for (size_t i = ring_.size(); i-- > ring_head_;) {
    const Transmission& tx = ring_[i];
    if (tx.start + max_airtime_ <= start) break;
    if (tx.src == sender) continue;
    if (tx.end <= start || tx.start >= end) continue;  // No time overlap.
    const Point& p = topology_->position(tx.src);
    double dx = s.x - p.x;
    double dy = s.y - p.y;
    if (dx * dx + dy * dy > collide_range2_) continue;  // Too far to matter.
    candidates_.push_back(tx.src);
  }
}

void LinkLayer::Stamp() {
  for (NodeId c : candidates_) {
    for (const Topology::Link& link : topology_->audible_from(c)) {
      if (link.prob < interference_threshold_) continue;  // Too weak to interfere.
      double& w = worst_[link.to];
      w = std::max(w, link.prob);
    }
  }
  stamped_ = true;
}

void LinkLayer::ClearStamps() {
  if (!stamped_) return;
  // The stamped entries are exactly the previous frame's candidates'
  // out-links: re-walk them rather than keep a list.
  for (NodeId c : candidates_) {
    for (const Topology::Link& link : topology_->audible_from(c)) worst_[link.to] = 0.0;
  }
  stamped_ = false;
}

}  // namespace scoop::sim
