#include <cmath>

#include <gtest/gtest.h>

#include "metrics/energy_model.h"
#include "metrics/message_stats.h"
#include "metrics/telemetry.h"

namespace scoop::metrics {
namespace {

Packet DataPacket(NodeId origin) {
  DataPayload d;
  d.producer = origin;
  d.readings.push_back(Reading{5, Seconds(1)});
  return MakePacket(origin, 0, d);
}

TEST(MessageStatsTest, CountsByTypeAndNode) {
  MessageStats stats(4);
  Packet data = DataPacket(1);
  stats.OnTransmit(1, data, false);
  stats.OnTransmit(1, data, true);
  stats.OnTransmit(2, MakePacket(2, 0, BeaconPayload{}), false);
  stats.OnDeliver(3, data, true, data.WireSize());
  stats.OnDeliver(2, data, false, data.WireSize());  // Snooped.
  stats.OnDrop(1, data);

  const TypeCounters& d = stats.ByType(PacketType::kData);
  EXPECT_EQ(d.sent, 2u);
  EXPECT_EQ(d.retransmissions, 1u);
  EXPECT_EQ(d.delivered, 1u);
  EXPECT_EQ(d.snooped, 1u);
  EXPECT_EQ(d.dropped, 1u);
  EXPECT_EQ(stats.ByType(PacketType::kBeacon).sent, 1u);
  EXPECT_EQ(stats.TotalSent(), 3u);
  EXPECT_EQ(stats.TotalSentExclBeacons(), 2u);
  EXPECT_EQ(stats.SentBy(1), 2u);
  EXPECT_EQ(stats.SentBy(2), 1u);
  EXPECT_EQ(stats.ReceivedBy(3), 1u);
  EXPECT_EQ(stats.ReceivedBy(2), 0u);  // Snoops are not addressed receipts.
  EXPECT_EQ(stats.SentByOfType(1, PacketType::kData), 2u);
  EXPECT_EQ(stats.ReceivedByOfType(3, PacketType::kData), 1u);
}

TEST(MessageStatsTest, ByteAccounting) {
  MessageStats stats(2);
  Packet data = DataPacket(0);
  stats.OnTransmit(0, data, false);
  EXPECT_EQ(stats.BytesSentBy(0), static_cast<uint64_t>(data.WireSize()));
  stats.OnDeliver(1, data, true, data.WireSize());
  stats.OnDeliver(1, data, false, data.WireSize());
  EXPECT_EQ(stats.BytesReceivedBy(1), 2 * static_cast<uint64_t>(data.WireSize()));
}

TEST(MessageStatsTest, ToStringMentionsTypes) {
  MessageStats stats(2);
  stats.OnTransmit(0, DataPacket(0), false);
  std::string report = stats.ToString();
  EXPECT_NE(report.find("data"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
}

TEST(EnergyModelTest, RadioDominatesFlashPerBit) {
  // §2.1: radio is about two orders of magnitude more expensive per bit.
  EnergyModel model;
  double radio = model.RadioEnergyJ(1000, 0);
  double flash = model.FlashWriteEnergyJ(1000);
  EXPECT_GT(radio / flash, 10.0);
}

TEST(EnergyModelTest, LifetimeInverselyProportionalToPower) {
  EnergyModel model;
  double one_unit = model.LifetimeDays(1.0, Minutes(30));
  double two_units = model.LifetimeDays(2.0, Minutes(30));
  EXPECT_NEAR(one_unit, 2 * two_units, 1e-6);
}

TEST(EnergyModelTest, IdleNodeLivesForever) {
  EnergyModel model;
  EXPECT_TRUE(std::isinf(model.LifetimeDays(0.0, Minutes(30))));
}

TEST(TelemetryTest, Rates) {
  Telemetry t;
  EXPECT_DOUBLE_EQ(t.StorageSuccessRate(), 0.0);
  EXPECT_DOUBLE_EQ(t.OwnerHitRate(), 0.0);
  EXPECT_DOUBLE_EQ(t.QuerySuccessRate(), 0.0);
  t.readings_produced = 100;
  t.readings_stored = 90;
  t.stored_local_no_index = 10;
  t.stored_at_owner = 72;
  EXPECT_DOUBLE_EQ(t.StorageSuccessRate(), 0.9);
  EXPECT_DOUBLE_EQ(t.OwnerHitRate(), 0.9);  // 72 / (90 - 10).
  t.query_targets_total = 50;
  t.replies_received = 39;
  EXPECT_DOUBLE_EQ(t.QuerySuccessRate(), 0.78);
  t.summaries_sent = 10;
  t.summaries_received_at_base = 6;
  EXPECT_DOUBLE_EQ(t.SummaryDeliveryRate(), 0.6);
}

}  // namespace
}  // namespace scoop::metrics
