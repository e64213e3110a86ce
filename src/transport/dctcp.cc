#include "src/transport/dctcp.h"

namespace fsio {

constexpr std::uint64_t kMaxCwndBytes = 4 << 20;
constexpr double kG = 1.0 / 16.0;  // DCTCP alpha gain
// Exponential RTO backoff: each consecutive timeout doubles the next RTO,
// up to 2^kMaxRtoBackoffShift; any new cumulative ACK resets it.
constexpr std::uint32_t kMaxRtoBackoffShift = 6;
constexpr TimeNs kAckDelayNs = 20 * kNsPerUs;  // max ACK coalescing delay
constexpr std::uint32_t kAckEveryMss = 4;      // ACK at least every N * MSS in-order (GRO)

DctcpSender::DctcpSender(std::uint64_t flow_id, const DctcpConfig& config, EventQueue* ev,
                         EmitFn emit, StatsRegistry* stats)
    : flow_id_(flow_id),
      config_(config),
      ev_(ev),
      emit_(std::move(emit)),
      cwnd_(static_cast<double>(config.init_cwnd_packets) * config.mss_bytes),
      stats_(stats),
      sent_packets_(stats->Get("dctcp.data_packets")),
      retransmit_packets_(stats->Get("dctcp.retransmits")),
      timeout_events_(stats->Get("dctcp.timeouts")) {
  window_end_ = cwnd_;
}

void DctcpSender::SetRoute(std::uint32_t src_host, std::uint32_t dst_host,
                           std::uint32_t dst_core) {
  src_host_ = src_host;
  dst_host_ = dst_host;
  dst_core_ = dst_core;
}

void DctcpSender::EnqueueAppBytes(std::uint64_t bytes) {
  app_limit_ += bytes;
  MaybeSend();
}

void DctcpSender::SendSegment(std::uint64_t seq, std::uint32_t len, bool retransmit) {
  Packet p;
  p.flow_id = flow_id_;
  p.src_host = src_host_;
  p.dst_host = dst_host_;
  p.dst_core = dst_core_;
  p.seq = seq;
  p.payload = len;
  p.is_retransmit = retransmit;
  p.sent_at = ev_->now();
  sent_packets_->Add();
  if (retransmit) {
    retransmit_packets_->Add();
    trace_.Instant("transport", "retransmit", ev_->now(), "flow",
                   static_cast<double>(flow_id_), "seq", static_cast<double>(seq));
  }
  emit_(p);
}

void DctcpSender::MaybeSend() {
  if (aborted_) {
    return;  // peer declared dead: no data, no timer re-arm
  }
  const std::uint32_t tso = config_.tso_segments == 0 ? 1 : config_.tso_segments;
  while (snd_nxt_ < app_limit_) {
    const std::uint64_t in_flight = snd_nxt_ - snd_una_;
    if (static_cast<double>(in_flight) + config_.mss_bytes > cwnd_ &&
        in_flight > 0) {
      break;
    }
    // Emit up to one TSO segment's worth, bounded by cwnd and app data.
    std::uint64_t allowance = static_cast<std::uint64_t>(tso) * config_.mss_bytes;
    if (cwnd_ > static_cast<double>(in_flight)) {
      const auto window = static_cast<std::uint64_t>(cwnd_) - in_flight;
      if (window < allowance) {
        allowance = window < config_.mss_bytes ? config_.mss_bytes : window;
      }
    }
    const std::uint64_t remaining = app_limit_ - snd_nxt_;
    if (allowance > remaining) {
      allowance = remaining;
    }
    if (quota_ && !quota_(allowance)) {
      break;  // TSQ: wait for a Tx completion to free budget
    }
    SendSegment(snd_nxt_, static_cast<std::uint32_t>(allowance), false);
    snd_nxt_ += allowance;
  }
  if (snd_una_ < snd_nxt_ && !rto_armed_) {
    ArmRto();
  }
}

void DctcpSender::ArmRto() {
  rto_armed_ = true;
  const std::uint64_t epoch = ++rto_epoch_;
  TimeNs rto = srtt_ * 4;
  if (rto < config_.min_rto_ns) {
    rto = config_.min_rto_ns;
  }
  // Karn-style exponential backoff: consecutive timeouts (no intervening
  // forward progress) double the timer, so a dead path probes ever less
  // often instead of retransmitting at a fixed min-RTO cadence.
  rto <<= rto_backoff_shift_;
  ev_->ScheduleAfter(rto, [this, epoch] { OnRto(epoch); });
}

void DctcpSender::OnRto(std::uint64_t armed_epoch) {
  if (armed_epoch != rto_epoch_) {
    return;  // superseded by a newer ACK/arm
  }
  rto_armed_ = false;
  if (snd_una_ >= snd_nxt_) {
    return;  // everything got acked meanwhile
  }
  // Go-back-N: rewind and slow-start.
  ++timeouts_;
  if (rto_backoff_shift_ < kMaxRtoBackoffShift) {
    ++rto_backoff_shift_;
  }
  timeout_events_->Add();
  trace_.Instant("transport", "rto", ev_->now(), "flow",
                 static_cast<double>(flow_id_), "snd_una", static_cast<double>(snd_una_));
  ++consecutive_timeouts_;
  if (config_.abort_after_timeouts > 0 &&
      consecutive_timeouts_ >= config_.abort_after_timeouts) {
    // RTO ceiling reached with zero forward progress: declare the peer dead
    // and abort instead of probing a black hole forever. The counter is
    // fetched lazily so abort-free runs publish the historical counter set.
    aborted_ = true;
    LazyCounter(stats_, &flow_aborts_, "dctcp.flow_aborts")->Add();
    trace_.Instant("transport", "flow_abort", ev_->now(), "flow",
                   static_cast<double>(flow_id_), "timeouts",
                   static_cast<double>(consecutive_timeouts_));
    return;
  }
  snd_nxt_ = snd_una_;
  cwnd_ = config_.mss_bytes;
  dup_acks_ = 0;
  MaybeSend();
}

void DctcpSender::UpdateAlphaWindow() {
  if (snd_una_ < window_end_) {
    return;
  }
  if (window_acked_ > 0) {
    const double f =
        static_cast<double>(window_marked_) / static_cast<double>(window_acked_);
    alpha_ = (1.0 - kG) * alpha_ + kG * f;
    if (window_marked_ > 0) {
      cwnd_ = cwnd_ * (1.0 - alpha_ / 2.0);
      if (cwnd_ < config_.mss_bytes) {
        cwnd_ = config_.mss_bytes;
      }
    }
  }
  window_acked_ = 0;
  window_marked_ = 0;
  window_end_ = snd_una_ + static_cast<std::uint64_t>(cwnd_);
  cwnd_reduced_this_window_ = false;
}

void DctcpSender::OnAck(const Packet& ack) {
  if (!ack.has_ack || aborted_) {
    return;  // an aborted flow's connection state is gone; late ACKs drop
  }
  // RTT sample from the receiver's echo of our data-packet timestamp.
  if (ack.ts_echo != 0 && ev_->now() > ack.ts_echo) {
    const TimeNs sample = ev_->now() - ack.ts_echo;
    srtt_ = static_cast<TimeNs>(0.875 * static_cast<double>(srtt_) +
                                0.125 * static_cast<double>(sample));
  }
  window_acked_ += ack.acked_bytes;
  window_marked_ += ack.marked_bytes;

  if (ack.ack_seq > snd_una_) {
    const std::uint64_t newly = ack.ack_seq - snd_una_;
    snd_una_ = ack.ack_seq;
    if (snd_nxt_ < snd_una_) {
      // A late cumulative ACK (sent before an RTO rewound snd_nxt_) can
      // overtake the rewound send pointer; resume from the acked byte.
      snd_nxt_ = snd_una_;
    }
    dup_acks_ = 0;
    // Additive increase: one MSS per cwnd of acked bytes.
    cwnd_ += static_cast<double>(config_.mss_bytes) * static_cast<double>(newly) / cwnd_;
    if (cwnd_ > static_cast<double>(kMaxCwndBytes)) {
      cwnd_ = static_cast<double>(kMaxCwndBytes);
    }
    UpdateAlphaWindow();
    // Progress: reset the timeout backoff and re-arm the timer.
    rto_backoff_shift_ = 0;
    consecutive_timeouts_ = 0;
    rto_armed_ = false;
    ++rto_epoch_;
    if (snd_una_ < snd_nxt_) {
      ArmRto();
    }
  } else if (ack.ack_seq == snd_una_ && snd_una_ < snd_nxt_) {
    ++dup_acks_;
    if (dup_acks_ == 3 && !cwnd_reduced_this_window_) {
      // Fast retransmit: resend the missing head segment and halve cwnd.
      std::uint32_t len = config_.mss_bytes;
      if (snd_una_ + len > snd_nxt_) {
        len = static_cast<std::uint32_t>(snd_nxt_ - snd_una_);
      }
      SendSegment(snd_una_, len, true);
      ++fast_retransmits_;
      trace_.Instant("transport", "cwnd_cut", ev_->now(), "flow",
                     static_cast<double>(flow_id_), "cwnd", cwnd_ / 2.0);
      cwnd_ = cwnd_ / 2.0;
      if (cwnd_ < config_.mss_bytes) {
        cwnd_ = config_.mss_bytes;
      }
      cwnd_reduced_this_window_ = true;
    }
  }
  MaybeSend();
}

DctcpReceiver::DctcpReceiver(std::uint64_t flow_id, const DctcpConfig& config, EventQueue* ev,
                             EmitFn emit, DeliverFn deliver, StatsRegistry* stats)
    : flow_id_(flow_id),
      config_(config),
      ev_(ev),
      emit_(std::move(emit)),
      deliver_(std::move(deliver)),
      acks_sent_(stats->Get("dctcp.acks_sent")),
      dup_acks_sent_(stats->Get("dctcp.dup_acks_sent")),
      ooo_packets_(stats->Get("dctcp.ooo_packets")) {}

void DctcpReceiver::SetRoute(std::uint32_t src_host, std::uint32_t dst_host,
                             std::uint32_t dst_core) {
  src_host_ = src_host;
  dst_host_ = dst_host;
  dst_core_ = dst_core;
}

void DctcpReceiver::SendAck() {
  Packet ack;
  ack.flow_id = flow_id_;
  ack.src_host = src_host_;
  ack.dst_host = dst_host_;
  ack.dst_core = dst_core_;
  ack.has_ack = true;
  ack.ack_seq = rcv_nxt_;
  ack.acked_bytes = unacked_bytes_;
  ack.marked_bytes = unacked_marked_;
  ack.sent_at = ev_->now();
  ack.ts_echo = last_data_ts_;
  unacked_bytes_ = 0;
  unacked_marked_ = 0;
  ++ack_epoch_;
  ack_timer_armed_ = false;
  acks_sent_->Add();
  emit_(ack);
}

void DctcpReceiver::ScheduleDelayedAck() {
  if (ack_timer_armed_) {
    return;
  }
  ack_timer_armed_ = true;
  const std::uint64_t epoch = ack_epoch_;
  ev_->ScheduleAfter(kAckDelayNs, [this, epoch] {
    if (epoch == ack_epoch_ && (unacked_bytes_ > 0 || ack_timer_armed_)) {
      SendAck();
    }
  });
}

void DctcpReceiver::OnData(const Packet& packet) {
  last_data_ts_ = packet.sent_at;
  const std::uint64_t start = packet.seq;
  const std::uint64_t end = packet.seq + packet.payload;
  if (packet.ce) {
    unacked_marked_ += packet.payload;
  }
  if (end <= rcv_nxt_) {
    // Entirely duplicate data (spurious retransmission); re-ack immediately.
    SendAck();
    return;
  }
  if (start > rcv_nxt_) {
    // Out of order: buffer and send an immediate duplicate ACK.
    ooo_packets_->Add();
    trace_.Instant("transport", "ooo_data", ev_->now(), "flow",
                   static_cast<double>(flow_id_), "gap",
                   static_cast<double>(start - rcv_nxt_));
    auto [it, inserted] = ooo_.try_emplace(start, end);
    if (!inserted && it->second < end) {
      it->second = end;
    }
    dup_acks_sent_->Add();
    SendAck();
    return;
  }
  // In-order (possibly overlapping) data.
  std::uint64_t new_rcv_nxt = end;
  auto it = ooo_.begin();
  while (it != ooo_.end() && it->first <= new_rcv_nxt) {
    if (it->second > new_rcv_nxt) {
      new_rcv_nxt = it->second;
    }
    it = ooo_.erase(it);
  }
  const std::uint64_t delivered = new_rcv_nxt - rcv_nxt_;
  rcv_nxt_ = new_rcv_nxt;
  unacked_bytes_ += delivered;
  if (deliver_) {
    deliver_(delivered);
  }
  // GRO-style coalescing: ack every kAckEveryMss * MSS, or after a gap
  // just filled (progress after dup-acks), else delay.
  if (!ooo_.empty() ||
      unacked_bytes_ >= static_cast<std::uint64_t>(kAckEveryMss) * config_.mss_bytes) {
    SendAck();
  } else {
    ScheduleDelayedAck();
  }
}

}  // namespace fsio
