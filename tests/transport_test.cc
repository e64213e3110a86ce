// Unit tests for the DCTCP transport endpoints and the network switch,
// using a direct loopback harness (no NIC/host in between).
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "src/simcore/event_queue.h"
#include "src/stats/counters.h"
#include "src/transport/dctcp.h"
#include "src/transport/network_switch.h"
#include "src/transport/packet.h"

namespace fsio {
namespace {

// Loopback harness: sender -> (delay, optional drop/mark) -> receiver, and
// receiver ACKs -> (delay) -> sender.
class Loopback {
 public:
  explicit Loopback(DctcpConfig config, TimeNs delay = 10 * kNsPerUs)
      : config_(config), delay_(delay) {
    sender_ = std::make_unique<DctcpSender>(
        1, config_, &ev_, [this](const Packet& p) { OnSenderEmit(p); }, &stats_);
    receiver_ = std::make_unique<DctcpReceiver>(
        1, config_, &ev_, [this](const Packet& p) { OnReceiverEmit(p); },
        [this](std::uint64_t bytes) { delivered_ += bytes; }, &stats_);
  }

  void OnSenderEmit(const Packet& segment) {
    ++segments_sent_;
    // TSO segmentation into MTU packets happens at the NIC; emulate it here.
    std::uint64_t off = 0;
    do {
      Packet wire = segment;
      wire.seq = segment.seq + off;
      wire.payload = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(config_.mss_bytes, segment.payload - off));
      off += wire.payload;
      if (drop_every_ > 0 && ++wire_count_ % drop_every_ == 0) {
        ++dropped_;
        continue;
      }
      if (mark_all_) {
        wire.ce = true;
      }
      ev_.ScheduleAfter(delay_, [this, wire] { receiver_->OnData(wire); });
    } while (off < segment.payload);
  }

  void OnReceiverEmit(const Packet& ack) {
    ev_.ScheduleAfter(delay_, [this, ack] { sender_->OnAck(ack); });
  }

  EventQueue ev_;
  StatsRegistry stats_;
  DctcpConfig config_;
  TimeNs delay_;
  std::unique_ptr<DctcpSender> sender_;
  std::unique_ptr<DctcpReceiver> receiver_;
  std::uint64_t delivered_ = 0;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t wire_count_ = 0;
  std::uint32_t drop_every_ = 0;
  std::uint64_t dropped_ = 0;
  bool mark_all_ = false;
};

DctcpConfig SmallConfig() {
  DctcpConfig config;
  config.mss_bytes = 1000;
  config.tso_segments = 4;
  config.init_cwnd_packets = 10;
  config.min_rto_ns = 1 * kNsPerMs;
  return config;
}

TEST(DctcpTest, DeliversAllBytesInOrder) {
  Loopback net(SmallConfig());
  net.sender_->EnqueueAppBytes(1000 * 100);
  net.ev_.RunUntil(100 * kNsPerMs);
  EXPECT_EQ(net.delivered_, 100000u);
  EXPECT_EQ(net.receiver_->bytes_delivered(), 100000u);
  EXPECT_EQ(net.sender_->bytes_acked(), 100000u);
}

TEST(DctcpTest, TsoEmitsMultiMssSegments) {
  Loopback net(SmallConfig());
  net.sender_->EnqueueAppBytes(8000);
  net.ev_.RunUntil(10 * kNsPerMs);
  EXPECT_EQ(net.delivered_, 8000u);
  // 8 MSS in TSO segments of up to 4 MSS: far fewer segments than packets.
  EXPECT_LE(net.segments_sent_, 4u);
}

TEST(DctcpTest, RecoversFromPacketLoss) {
  Loopback net(SmallConfig());
  net.drop_every_ = 17;  // drop ~6% of wire packets
  net.sender_->EnqueueAppBytes(1000 * 200);
  net.ev_.RunUntil(500 * kNsPerMs);
  EXPECT_EQ(net.delivered_, 200000u) << "transport failed to recover all losses";
  EXPECT_GT(net.dropped_, 0u);
  EXPECT_GT(net.sender_->fast_retransmits() + net.sender_->timeouts(), 0u);
}

TEST(DctcpTest, RecoversFromHeavyLoss) {
  Loopback net(SmallConfig());
  net.drop_every_ = 4;  // 25% loss
  net.sender_->EnqueueAppBytes(1000 * 50);
  net.ev_.RunUntil(2000 * kNsPerMs);
  EXPECT_EQ(net.delivered_, 50000u);
}

TEST(DctcpTest, EcnMarksReduceCwnd) {
  Loopback net(SmallConfig());
  net.sender_->EnqueueAppBytes(1ULL << 30);
  net.ev_.RunUntil(5 * kNsPerMs);
  const double cwnd_before = net.sender_->cwnd_bytes();
  net.mark_all_ = true;
  net.ev_.RunUntil(50 * kNsPerMs);
  EXPECT_GT(net.sender_->alpha(), 0.5);  // alpha converges toward 1
  EXPECT_LT(net.sender_->cwnd_bytes(), cwnd_before);
}

TEST(DctcpTest, CwndGrowsWithoutCongestion) {
  Loopback net(SmallConfig());
  const double cwnd0 = net.sender_->cwnd_bytes();
  net.sender_->EnqueueAppBytes(1ULL << 24);
  net.ev_.RunUntil(20 * kNsPerMs);
  EXPECT_GT(net.sender_->cwnd_bytes(), cwnd0);
  EXPECT_DOUBLE_EQ(net.sender_->alpha(), 0.0);
}

TEST(DctcpTest, RtoFiresWhenAllAcksLost) {
  // Drop everything: only RTO can recover, repeatedly.
  Loopback net(SmallConfig());
  net.drop_every_ = 1;  // 100% loss
  net.sender_->EnqueueAppBytes(5000);
  net.ev_.RunUntil(20 * kNsPerMs);
  EXPECT_GE(net.sender_->timeouts(), 2u);
  EXPECT_EQ(net.delivered_, 0u);
  // Heal the path: the flow must finish.
  net.drop_every_ = 0;
  net.ev_.RunUntil(net.ev_.now() + 200 * kNsPerMs);
  EXPECT_EQ(net.delivered_, 5000u);
}

TEST(DctcpTest, QuotaPausesAndResumesSender) {
  Loopback net(SmallConfig());
  bool allow = false;
  net.sender_->SetQuota([&allow](std::uint64_t) { return allow; });
  net.sender_->EnqueueAppBytes(10000);
  net.ev_.RunUntil(5 * kNsPerMs);
  EXPECT_EQ(net.delivered_, 0u);  // quota blocks everything
  allow = true;
  net.sender_->MaybeSend();
  net.ev_.RunUntil(net.ev_.now() + 50 * kNsPerMs);
  EXPECT_EQ(net.delivered_, 10000u);
}

TEST(DctcpTest, ReceiverCoalescesAcks) {
  Loopback net(SmallConfig());
  net.sender_->EnqueueAppBytes(1000 * 64);
  net.ev_.RunUntil(50 * kNsPerMs);
  const std::uint64_t acks = net.stats_.Value("dctcp.acks_sent");
  // With an ACK every 4 MSS (kAckEveryMss), at most ~1 ack per 4 packets
  // (plus timer stragglers).
  EXPECT_LT(acks, 64u / 2);
  EXPECT_GT(acks, 0u);
}

TEST(DctcpTest, OutOfOrderTriggersImmediateDupAcks) {
  Loopback net(SmallConfig());
  net.drop_every_ = 9;
  net.sender_->EnqueueAppBytes(1000 * 100);
  net.ev_.RunUntil(200 * kNsPerMs);
  EXPECT_GT(net.stats_.Value("dctcp.dup_acks_sent"), 0u);
  EXPECT_GT(net.stats_.Value("dctcp.ooo_packets"), 0u);
}

TEST(DctcpTest, RtoBackoffGrowsExponentially) {
  // On a dead path the retransmission timer must back off (1, 2, 4, ... ms),
  // not fire at a fixed min-RTO cadence. With min_rto = 1 ms the timeouts
  // land near 1, 3, 7, 15, 31 ms — a fixed timer would fire ~40 times.
  Loopback net(SmallConfig());
  net.drop_every_ = 1;  // 100% loss
  net.sender_->EnqueueAppBytes(5000);
  net.ev_.RunUntil(40 * kNsPerMs);
  EXPECT_GE(net.sender_->timeouts(), 4u);
  EXPECT_LE(net.sender_->timeouts(), 6u);
  EXPECT_GE(net.sender_->rto_backoff_shift(), 4u);
}

TEST(DctcpTest, RtoBackoffResetsAfterAck) {
  Loopback net(SmallConfig());
  net.drop_every_ = 1;
  net.sender_->EnqueueAppBytes(5000);
  net.ev_.RunUntil(10 * kNsPerMs);  // timeouts at ~1, 3, 7 ms
  EXPECT_GE(net.sender_->rto_backoff_shift(), 2u);
  // Heal the path: the first new cumulative ACK must clear the backoff.
  net.drop_every_ = 0;
  net.ev_.RunUntil(net.ev_.now() + 200 * kNsPerMs);
  EXPECT_EQ(net.delivered_, 5000u);
  EXPECT_EQ(net.sender_->rto_backoff_shift(), 0u);
}

TEST(DctcpTest, RtoCollapsesCwndToExactlyOneMss) {
  Loopback net(SmallConfig());
  net.drop_every_ = 1;
  net.sender_->EnqueueAppBytes(50000);
  net.ev_.RunUntil(5 * kNsPerMs);
  ASSERT_GE(net.sender_->timeouts(), 1u);
  EXPECT_DOUBLE_EQ(net.sender_->cwnd_bytes(), 1000.0);  // exactly 1 MSS
}

TEST(DctcpTest, FastRetransmitHalvingFloorsAtOneMss) {
  // With cwnd already at 1 MSS, the fast-retransmit halving must clamp at
  // the 1-MSS floor instead of going to half an MSS.
  EventQueue ev;
  StatsRegistry stats;
  DctcpConfig config = SmallConfig();
  config.init_cwnd_packets = 1;
  DctcpSender snd(1, config, &ev, [](const Packet&) {}, &stats);
  snd.EnqueueAppBytes(10000);
  EXPECT_DOUBLE_EQ(snd.cwnd_bytes(), 1000.0);
  Packet dup;
  dup.has_ack = true;
  dup.ack_seq = 0;
  for (int i = 0; i < 3; ++i) {
    snd.OnAck(dup);
  }
  EXPECT_EQ(snd.fast_retransmits(), 1u);
  EXPECT_DOUBLE_EQ(snd.cwnd_bytes(), 1000.0);
}

TEST(DctcpTest, EcnMarkedBurstCutsCwndOncePerWindow) {
  // DCTCP's multiplicative decrease happens once per alpha window: marked
  // ACKs arriving mid-window must not cut cwnd again; only the ACK crossing
  // the window boundary applies the (single) alpha-proportional cut.
  EventQueue ev;
  StatsRegistry stats;
  DctcpSender snd(1, SmallConfig(), &ev, [](const Packet&) {}, &stats);
  snd.EnqueueAppBytes(100 << 20);
  // Prime alpha toward 1 with fully-marked windows.
  std::uint64_t una = 0;
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t target =
        una + static_cast<std::uint64_t>(snd.cwnd_bytes());
    Packet a;
    a.has_ack = true;
    a.ack_seq = target;
    a.acked_bytes = target - una;
    a.marked_bytes = target - una;
    snd.OnAck(a);
    una = target;
  }
  EXPECT_GT(snd.alpha(), 0.8);
  // The window boundary is now exactly una + cwnd. Deliver a burst of
  // marked ACKs strictly inside the window: no cut may happen (cwnd only
  // grows by additive increase).
  const std::uint64_t window_end =
      una + static_cast<std::uint64_t>(snd.cwnd_bytes());
  const std::uint64_t step = (window_end - una) / 4;
  ASSERT_GT(step, 0u);
  for (int i = 1; i <= 3; ++i) {
    const double before = snd.cwnd_bytes();
    Packet a;
    a.has_ack = true;
    a.ack_seq = una + static_cast<std::uint64_t>(i) * step;
    a.acked_bytes = step;
    a.marked_bytes = step;
    snd.OnAck(a);
    EXPECT_GE(snd.cwnd_bytes(), before) << "mid-window marked ACK " << i;
  }
  // The boundary-crossing ACK applies exactly one alpha-proportional cut.
  const double before_cut = snd.cwnd_bytes();
  Packet boundary;
  boundary.has_ack = true;
  boundary.ack_seq = window_end;
  boundary.acked_bytes = window_end - (una + 3 * step);
  boundary.marked_bytes = boundary.acked_bytes;
  snd.OnAck(boundary);
  EXPECT_LT(snd.cwnd_bytes(), before_cut);
  // With alpha near 1 the cut is close to halving — and definitely not the
  // compounding of four cuts.
  EXPECT_GT(snd.cwnd_bytes(), before_cut * 0.4);
}

TEST(SwitchTest, ForwardsWithSerializationAndPropagation) {
  StatsRegistry stats;
  SwitchConfig config;
  config.port_gbps = 100.0;
  config.prop_delay_ns = 1000;
  NetworkSwitch sw(config, 2, &stats);
  Packet p;
  p.dst_host = 1;
  p.payload = 4030;
  const auto t = sw.Forward(&p, 0);
  ASSERT_TRUE(t.has_value());
  // 4096 bytes at 12.5 B/ns = 327 ns + 1000 ns propagation.
  EXPECT_NEAR(static_cast<double>(*t), 1327.0, 5.0);
}

TEST(SwitchTest, BacklogDelaysSubsequentPackets) {
  StatsRegistry stats;
  NetworkSwitch sw(SwitchConfig{}, 2, &stats);
  Packet p;
  p.dst_host = 0;
  p.payload = 4030;
  const auto t1 = sw.Forward(&p, 0);
  const auto t2 = sw.Forward(&p, 0);
  ASSERT_TRUE(t1 && t2);
  EXPECT_GT(*t2, *t1);
}

TEST(SwitchTest, MarksCeAboveThreshold) {
  StatsRegistry stats;
  SwitchConfig config;
  config.ecn_threshold_bytes = 10000;
  NetworkSwitch sw(config, 2, &stats);
  Packet p;
  p.dst_host = 0;
  p.payload = 4030;
  bool marked = false;
  for (int i = 0; i < 10; ++i) {
    p.ce = false;
    sw.Forward(&p, 0);  // all at t=0: backlog builds
    marked |= p.ce;
  }
  EXPECT_TRUE(marked);
  EXPECT_GT(stats.Value("switch.marked"), 0u);
}

TEST(SwitchTest, TailDropsWhenQueueFull) {
  StatsRegistry stats;
  SwitchConfig config;
  config.queue_capacity_bytes = 10000;
  NetworkSwitch sw(config, 2, &stats);
  Packet p;
  p.dst_host = 0;
  p.payload = 4030;
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    if (sw.Forward(&p, 0).has_value()) {
      ++delivered;
    }
  }
  EXPECT_LT(delivered, 10);
  EXPECT_GT(stats.Value("switch.dropped"), 0u);
}

TEST(SwitchTest, IndependentPortsDoNotInterfere) {
  StatsRegistry stats;
  NetworkSwitch sw(SwitchConfig{}, 2, &stats);
  Packet a;
  a.dst_host = 0;
  a.payload = 4030;
  Packet b;
  b.dst_host = 1;
  b.payload = 4030;
  const auto t1 = sw.Forward(&a, 0);
  const auto t2 = sw.Forward(&b, 0);
  ASSERT_TRUE(t1 && t2);
  EXPECT_EQ(*t1, *t2);  // different ports: same latency, no queueing
}

}  // namespace
}  // namespace fsio
