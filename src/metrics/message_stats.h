// Message accounting: the paper's cost metric is the total number of
// link-layer transmissions, broken down by packet type (Figure 3). Also
// tracks per-node transmit/receive counts for the root-skew analysis (§6).
#ifndef SCOOP_METRICS_MESSAGE_STATS_H_
#define SCOOP_METRICS_MESSAGE_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/wire.h"

namespace scoop::metrics {

/// Counters for one packet type.
struct TypeCounters {
  uint64_t sent = 0;           ///< Transmissions, including retransmissions.
  uint64_t retransmissions = 0;
  uint64_t delivered = 0;      ///< Successful receptions addressed to the receiver.
  uint64_t snooped = 0;        ///< Overheard receptions.
  uint64_t dropped = 0;        ///< Frames abandoned by the MAC.
  uint64_t bytes_sent = 0;     ///< Wire bytes transmitted (incl. retx).
};

/// Whole-network message statistics for one run.
class MessageStats {
 public:
  explicit MessageStats(int num_nodes);

  /// Hooks; the harness wires these to the radio.
  void OnTransmit(NodeId src, const Packet& packet, bool retransmission);
  /// `wire_bytes` is packet.WireSize(), which the radio computes once per
  /// frame rather than once per receiver.
  void OnDeliver(NodeId dst, const Packet& packet, bool addressed, int wire_bytes);
  void OnDrop(NodeId src, const Packet& packet);

  const TypeCounters& ByType(PacketType type) const {
    return by_type_[static_cast<size_t>(type)];
  }

  /// Total transmissions across all packet types.
  uint64_t TotalSent() const;

  /// Total transmissions excluding routing beacons. Figure 3 reports only
  /// data/summary/mapping/query/reply traffic; the tree-maintenance
  /// substrate is identical across policies.
  uint64_t TotalSentExclBeacons() const;

  /// Transmissions by node `id`.
  uint64_t SentBy(NodeId id) const { return per_node_sent_[id]; }

  /// Successful receptions addressed to node `id`.
  uint64_t ReceivedBy(NodeId id) const { return per_node_recv_[id]; }

  /// Transmissions of packets of `type` by node `id`.
  uint64_t SentByOfType(NodeId id, PacketType type) const {
    return per_node_sent_by_type_[id][static_cast<size_t>(type)];
  }

  /// Receptions of packets of `type` addressed to node `id`.
  uint64_t ReceivedByOfType(NodeId id, PacketType type) const {
    return per_node_recv_by_type_[id][static_cast<size_t>(type)];
  }

  /// Wire bytes transmitted by node `id` (for the energy model).
  uint64_t BytesSentBy(NodeId id) const { return per_node_bytes_sent_[id]; }

  /// Wire bytes received by node `id`, including snooped traffic (radios
  /// pay reception energy for everything they decode).
  uint64_t BytesReceivedBy(NodeId id) const { return per_node_bytes_recv_[id]; }

  /// Workload bytes handled by node `id`: transmissions plus *addressed*
  /// receptions, excluding routing beacons. This isolates the energy the
  /// storage policy itself causes (the §6 lifetime comparison), as opposed
  /// to the always-on listening cost common to every policy.
  uint64_t WorkloadBytesBy(NodeId id) const {
    return per_node_workload_bytes_[id];
  }

  int num_nodes() const { return static_cast<int>(per_node_sent_.size()); }

  /// Accumulates another instance's counters into this one (elementwise
  /// sums; both must cover the same node count). Sharded trials keep one
  /// MessageStats per shard and merge after the run.
  void MergeFrom(const MessageStats& other);

  /// Multi-line human-readable report.
  std::string ToString() const;

 private:
  std::array<TypeCounters, kNumPacketTypes> by_type_{};
  std::vector<uint64_t> per_node_sent_;
  std::vector<uint64_t> per_node_recv_;
  std::vector<uint64_t> per_node_bytes_sent_;
  std::vector<uint64_t> per_node_bytes_recv_;
  std::vector<uint64_t> per_node_workload_bytes_;
  std::vector<std::array<uint64_t, kNumPacketTypes>> per_node_sent_by_type_;
  std::vector<std::array<uint64_t, kNumPacketTypes>> per_node_recv_by_type_;
};

}  // namespace scoop::metrics

#endif  // SCOOP_METRICS_MESSAGE_STATS_H_
