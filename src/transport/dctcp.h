// DCTCP transport endpoints.
//
// One DctcpSender / DctcpReceiver pair per flow direction. The sender
// implements DCTCP congestion control (ECN-fraction-driven multiplicative
// decrease with per-RTT alpha estimation), additive increase, duplicate-ACK
// fast retransmit and go-back-N retransmission timeouts. The receiver
// delivers in-order bytes, tracks out-of-order arrivals, and generates
// coalesced (GRO-style) ACKs plus immediate duplicate ACKs — the mechanism
// behind the paper's §2.2 observation that higher drop rates inflate the ACK
// (Tx) rate and with it IOTLB/PTcache contention.
//
// Endpoints are host-agnostic: they emit packets through a callback and are
// fed packets by the host stack.
#ifndef FASTSAFE_SRC_TRANSPORT_DCTCP_H_
#define FASTSAFE_SRC_TRANSPORT_DCTCP_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/simcore/event_queue.h"
#include "src/simcore/time.h"
#include "src/stats/counters.h"
#include "src/trace/tracer.h"
#include "src/transport/packet.h"

namespace fsio {

struct DctcpConfig {
  std::uint32_t mss_bytes = 4030;        // MTU minus headers
  // TSO: the stack hands the NIC segments of up to tso_segments * MSS; the
  // NIC segments them into MTU packets on the wire. One dma_map/unmap cycle
  // covers the whole segment (the paper's testbed enables TSO).
  std::uint32_t tso_segments = 16;
  std::uint32_t init_cwnd_packets = 64;
  TimeNs min_rto_ns = 1 * kNsPerMs;
  // Peer-death handling: after this many consecutive timeouts with no
  // forward progress the flow aborts (counter "dctcp.flow_aborts") instead
  // of retransmitting forever into a dead host. 0 (default) never aborts —
  // the historical retransmit-forever behaviour.
  std::uint32_t abort_after_timeouts = 0;
};

class DctcpSender {
 public:
  // `emit` hands a packet to the host Tx datapath.
  using EmitFn = std::function<void(const Packet&)>;
  // Optional TSQ-style quota: returns true if the host Tx path can accept
  // `bytes` more from this flow right now. When it returns false the sender
  // pauses; the host calls MaybeSend() again when budget frees.
  using QuotaFn = std::function<bool(std::uint64_t bytes)>;

  DctcpSender(std::uint64_t flow_id, const DctcpConfig& config, EventQueue* ev, EmitFn emit,
              StatsRegistry* stats);

  // Makes `bytes` more application bytes available to send (use a huge value
  // for an iperf-style unbounded flow).
  void EnqueueAppBytes(std::uint64_t bytes);

  // Feeds an incoming (possibly duplicate) ACK.
  void OnAck(const Packet& ack);

  // Attempts to send as much as cwnd allows. Safe to call at any time.
  void MaybeSend();

  // Routing metadata stamped on every emitted packet.
  void SetRoute(std::uint32_t src_host, std::uint32_t dst_host, std::uint32_t dst_core);

  void SetQuota(QuotaFn quota) { quota_ = std::move(quota); }
  // Observability: retransmit/timeout/cwnd-cut instants per flow.
  void SetTrace(const TraceScope& trace) { trace_ = trace; }

  std::uint64_t flow_id() const { return flow_id_; }
  std::uint64_t bytes_acked() const { return snd_una_; }
  std::uint64_t bytes_pending() const { return app_limit_ - snd_una_; }
  double cwnd_bytes() const { return cwnd_; }
  double alpha() const { return alpha_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t fast_retransmits() const { return fast_retransmits_; }
  // Peer-death abort state: once aborted the sender emits nothing further.
  bool aborted() const { return aborted_; }
  std::uint32_t consecutive_timeouts() const { return consecutive_timeouts_; }
  std::uint32_t rto_backoff_shift() const { return rto_backoff_shift_; }
  std::uint64_t snd_una() const { return snd_una_; }
  std::uint64_t snd_nxt() const { return snd_nxt_; }
  bool rto_armed() const { return rto_armed_; }
  TimeNs srtt() const { return srtt_; }

 private:
  void SendSegment(std::uint64_t seq, std::uint32_t len, bool retransmit);
  void ArmRto();
  void OnRto(std::uint64_t armed_epoch);
  void UpdateAlphaWindow();

  std::uint64_t flow_id_;
  DctcpConfig config_;
  EventQueue* ev_;
  EmitFn emit_;
  QuotaFn quota_;
  TraceScope trace_;

  std::uint32_t src_host_ = 0;
  std::uint32_t dst_host_ = 0;
  std::uint32_t dst_core_ = 0;

  std::uint64_t app_limit_ = 0;  // stream bytes the app has made available
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;

  double cwnd_;
  double alpha_ = 0.0;
  std::uint64_t window_end_ = 0;       // alpha estimation window boundary
  std::uint64_t window_acked_ = 0;
  std::uint64_t window_marked_ = 0;
  bool cwnd_reduced_this_window_ = false;

  std::uint64_t last_ack_seq_ = 0;
  std::uint32_t dup_acks_ = 0;

  TimeNs srtt_ = 100 * kNsPerUs;
  std::uint64_t rto_epoch_ = 0;  // invalidates stale timers
  bool rto_armed_ = false;
  std::uint32_t rto_backoff_shift_ = 0;  // consecutive-timeout exponent

  std::uint64_t timeouts_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  std::uint32_t consecutive_timeouts_ = 0;
  bool aborted_ = false;
  StatsRegistry* stats_;
  Counter* sent_packets_;
  Counter* retransmit_packets_;
  Counter* timeout_events_;
};

class DctcpReceiver {
 public:
  using EmitFn = std::function<void(const Packet&)>;
  // Called with the count of newly in-order-delivered bytes.
  using DeliverFn = std::function<void(std::uint64_t bytes)>;

  DctcpReceiver(std::uint64_t flow_id, const DctcpConfig& config, EventQueue* ev, EmitFn emit,
                DeliverFn deliver, StatsRegistry* stats);

  // Feeds a data packet that survived the NIC/DMA path.
  void OnData(const Packet& packet);

  void SetRoute(std::uint32_t src_host, std::uint32_t dst_host, std::uint32_t dst_core);
  // Observability: out-of-order arrival instants per flow.
  void SetTrace(const TraceScope& trace) { trace_ = trace; }

  std::uint64_t bytes_delivered() const { return rcv_nxt_; }

 private:
  void SendAck();
  void ScheduleDelayedAck();

  std::uint64_t flow_id_;
  DctcpConfig config_;
  EventQueue* ev_;
  EmitFn emit_;
  DeliverFn deliver_;
  TraceScope trace_;

  std::uint32_t src_host_ = 0;
  std::uint32_t dst_host_ = 0;
  std::uint32_t dst_core_ = 0;

  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> ooo_;  // start -> end (exclusive)

  TimeNs last_data_ts_ = 0;  // timestamp echo (most recent data packet)
  std::uint64_t unacked_bytes_ = 0;  // in-order bytes since last ack
  std::uint64_t unacked_marked_ = 0;
  bool ack_timer_armed_ = false;
  std::uint64_t ack_epoch_ = 0;

  Counter* acks_sent_;
  Counter* dup_acks_sent_;
  Counter* ooo_packets_;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_TRANSPORT_DCTCP_H_
