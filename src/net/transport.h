// Reliable message transport over the simulated Ethernet.
//
// The Eden kernel exchanges messages (invocation requests/replies, checkpoint
// writes, object transfers) that routinely exceed one Ethernet frame, so the
// transport fragments messages into MTU-sized frames, reassembles them at the
// receiver, acknowledges complete messages, retransmits on timeout with
// exponential backoff, and suppresses duplicates. Broadcast messages (used by
// the kernel's location protocol) are best-effort: no acknowledgements.
//
// The transport gives *at-most-once delivery per message id*; end-to-end
// semantics (invocation timeouts, duplicate invocation suppression) are the
// kernel's job, exactly as the paper divides responsibilities in section 4.2.
//
// Fast-path engineering (DESIGN.md §9, "Performance"):
//   * Zero-copy payloads: an outgoing message is moved into a refcounted
//     SharedBytes; fragments are slices of it riding Frame::body, and the
//     receiver reassembles by re-slicing. A single-fragment message — the
//     common case — reaches the handler without a single payload copy and
//     without touching the reassembly table.
//   * One buffer per frame header, sized before it is written: the kind
//     byte, a CRC placeholder, the fields and the ACK block. Sealing fills
//     in the CRC in place.
//   * Coalesced ACKs: completed message ids are piggybacked on the next data
//     frame to that peer, or batched into one ACK frame after ack_delay.
//     Each peer's ACK queue persists between flushes, so queueing an ACK
//     reuses its vector.
//   * One retransmit timer per transport (a deadline min-heap), not one
//     simulation event per in-flight message.
//   * Slicing-by-8 CRC-32 (src/common/bytes): the three checksum calls per
//     frame fold eight bytes per table step, with bit-identical values.
//   * A flat duplicate-suppression window per peer (PeerHistory): a ring of
//     the last dedup_window delivered ids plus an open-addressed index into
//     it, which allocates nothing per delivery once the window is full. A
//     sender's ids rise, so a new message's id is above every id held, and
//     the check answers it without probing the index.
#ifndef EDEN_SRC_NET_TRANSPORT_H_
#define EDEN_SRC_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/metrics/metrics.h"
#include "src/net/lan.h"
#include "src/sim/simulation.h"
#include "src/trace/span.h"

namespace eden {

struct TransportConfig {
  SimDuration retransmit_timeout = Milliseconds(20);
  int max_retransmits = 8;
  // Delivered message ids remembered per peer for duplicate suppression.
  size_t dedup_window = 1024;
  // Reassembly buffers are garbage-collected after this long without
  // progress, by a periodic sweep that runs every reassembly_timeout while
  // any buffer is outstanding (never on the per-frame path).
  SimDuration reassembly_timeout = Seconds(5);
  // How long a completed message's ACK may wait for a data frame to ride on
  // (or for more ACKs to batch with) before a dedicated ACK frame is sent.
  // 0 disables coalescing: every reliable message is ACKed immediately.
  SimDuration ack_delay = Microseconds(500);
  // ACK ids per frame — both the standalone-frame batch size and the flush
  // threshold for a peer's pending-ACK queue.
  size_t max_acks_per_frame = 32;
};

class Transport {
 public:
  // The payload view is only valid for the duration of the call; handlers
  // that keep the bytes must copy them (BytesView::ToBytes).
  using Handler = std::function<void(StationId src, BytesView message)>;

  // Attaches a fresh station to `lan`, owned by `sim` (the shard clock that
  // drives this endpoint). `id_rng` is the stream message ids are drawn
  // from; nullptr means `sim`'s rng. Sharded systems pass the primary
  // shard's rng so id draws happen in node-creation order, independent of
  // which shard each node landed on.
  Transport(Simulation& sim, Lan& lan, TransportConfig config = {},
            Rng* id_rng = nullptr);

  // Observes the fate of every *reliable* send: `delivered` is true when the
  // peer's ACK arrives, false when the transport gives up after
  // max_retransmits. The kernel's peer-health tracker feeds on this. The
  // handler may issue new sends. Invoked after the pending entry is retired,
  // never for Reset()-discarded messages.
  using SendOutcomeHandler = std::function<void(StationId dst, bool delivered)>;
  void SetSendOutcomeHandler(SendOutcomeHandler handler) {
    on_send_outcome_ = std::move(handler);
  }

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  StationId station_id() const { return station_->id(); }

  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  // Sends with retransmission until acknowledged (or max_retransmits).
  // Returns the message id (for tests/diagnostics). Pass the payload with
  // std::move — it is shared with the wire, never copied.
  uint64_t SendReliable(StationId dst, Bytes message) {
    return SendReliable(dst, std::move(message), SpanContext{});
  }

  // As above, but opens a kWire span (child of `parent`) covering first
  // transmit -> ACK. Retransmits annotate the span; give-up and Reset close
  // it with an error status. No-op when no collector is attached.
  uint64_t SendReliable(StationId dst, Bytes message,
                        const SpanContext& parent);

  // Fire-and-forget; `dst` may be kBroadcastStation.
  void SendBestEffort(StationId dst, Bytes message);

  // Simulates the volatile state loss of a node failure: pending
  // retransmissions, delayed ACKs and reassembly buffers are discarded.
  // Dedup history is also dropped (a restarted node has no memory).
  void Reset();

  // Reliable sends still awaiting acknowledgement. Only SendReliable enters
  // the pending table (best-effort frames are fire-and-forget), so this is
  // exactly the state a node failure would silently discard — drain logic
  // waits for it to reach zero before departing a node.
  size_t pending_reliable_sends() const { return pending_.size(); }

  // Counts messages, fragments, ACKs, retransmits, give-ups, suppressed
  // duplicates and frames dropped for a bad CRC into `registry` under
  // transport.* names; with no registry the transport counts nothing. The
  // registry must outlive this transport; nullptr detaches.
  void set_metrics(MetricsRegistry* registry);

  // Attaches the shared span collector for kWire spans (DESIGN.md §12). The
  // collector must outlive this transport; nullptr detaches.
  void set_spans(SpanCollector* spans) { spans_ = spans; }

 private:
  enum FrameKind : uint8_t { kData = 1, kAck = 2 };

  struct PendingSend {
    StationId dst = 0;
    uint64_t msg_id = 0;
    SharedBytes message;
    bool reliable = false;
    int retransmits = 0;
    // Authoritative next deadline; stale retry-heap entries disagree and are
    // skipped when popped.
    SimTime next_retry = 0;
    // The kWire span riding this message (invalid when tracing is off).
    SpanContext span;
  };

  struct Reassembly {
    std::vector<SharedBytes> fragments;  // zero-copy slices of sender buffers
    size_t received = 0;
    SimTime last_progress = 0;
  };

  // The last `dedup_window` message ids delivered from one peer: a ring in
  // delivery order plus an open-addressed index of ring positions (linear
  // probing, load <= 1/2). Both grow by doubling as the peer's traffic
  // fills the window, so a peer heard from once holds one id and a 16-slot
  // index, and a busy one allocates nothing per delivery once its window is
  // full.
  class PeerHistory {
   public:
    // False at once for an id above every id ever inserted; probes the index
    // otherwise.
    bool Contains(uint64_t msg_id) const;
    // Records a delivery of an id not in the window, evicting the oldest id
    // once `window` ids are held.
    void Insert(uint64_t msg_id, size_t window);

   private:
    static constexpr uint32_t kEmpty = 0;  // index_ holds ring position + 1

    size_t Home(uint64_t msg_id) const;
    void IndexPosition(uint32_t pos);
    void UnindexPosition(uint32_t pos);
    void GrowIndex();

    std::vector<uint64_t> ring_;
    size_t oldest_ = 0;  // ring position of the oldest id once the ring is full
    std::vector<uint32_t> index_;  // size 0 or a power of two
    int index_bits_ = 0;
    uint64_t highest_ = 0;  // the highest id inserted
  };

  struct TransportCounters {
    Counter* messages_sent = nullptr;
    Counter* messages_delivered = nullptr;
    Counter* duplicates_suppressed = nullptr;
    Counter* retransmits = nullptr;
    Counter* send_failures = nullptr;  // gave up after max_retransmits
    Counter* acks_sent = nullptr;      // standalone ACK frames
    Counter* acks_piggybacked = nullptr;  // message ids carried on data frames
    Counter* fragments_sent = nullptr;
    // Frames whose CRC32 failed verification: treated exactly like lost
    // frames (the sender's retransmission recovers the message).
    Counter* frames_corrupt_dropped = nullptr;
  };

  static void Bump(Counter* counter, uint64_t n = 1) {
    if (counter != nullptr) {
      counter->Increment(n);
    }
  }

  void OnFrame(const Frame& frame);
  void HandleData(const Frame& frame, BufferReader& reader);
  void HandleAck(BufferReader& reader);
  void AckMsgId(uint64_t msg_id);
  void TransmitFragments(PendingSend& pending);
  // Writes the piggybacked-ACK block into a data frame header, consuming as
  // many of the destination's pending ACK `ids` (nullptr: none queued) as
  // fit beside `body_bytes` of payload.
  void AppendPiggybackAcks(BufferWriter& header, std::vector<uint64_t>* ids,
                           size_t body_bytes);
  void QueueAck(StationId peer, uint64_t msg_id);
  void FlushPeerAcks(StationId peer, std::vector<uint64_t>& ids);
  void FlushAllAcks();
  void MaybeCancelAckTimer();
  void ScheduleRetry(PendingSend& pending, SimTime at);
  void ArmRetryTimer();
  void OnRetryTimer();
  void ArmReassemblySweep();
  void RecordDelivered(StationId src, uint64_t msg_id);
  bool AlreadyDelivered(StationId src, uint64_t msg_id) const;
  void DeliverFastPath(const Frame& frame, uint64_t msg_id, bool reliable);

  Simulation& sim_;
  Lan& lan_;
  Station* station_;
  TransportConfig config_;
  TransportCounters counters_;
  SpanCollector* spans_ = nullptr;
  Handler handler_;
  SendOutcomeHandler on_send_outcome_;
  Rng* id_rng_;  // message-id stream (see the constructor comment)
  uint64_t next_msg_id_ = 1;

  std::unordered_map<uint64_t, PendingSend> pending_;
  // Retransmit deadlines, lazily invalidated: one simulation timer serves
  // every in-flight message.
  std::priority_queue<std::pair<SimTime, uint64_t>,
                      std::vector<std::pair<SimTime, uint64_t>>,
                      std::greater<std::pair<SimTime, uint64_t>>>
      retry_queue_;
  EventId retry_timer_ = kInvalidEventId;
  SimTime retry_timer_at_ = 0;

  // Per-peer ACK queues, kept (empty) between flushes so queueing an ACK
  // reuses the peer's vector. std::map: ACK flush order must be
  // deterministic across runs.
  std::map<StationId, std::vector<uint64_t>> pending_acks_;
  size_t pending_ack_total_ = 0;
  EventId ack_timer_ = kInvalidEventId;

  std::map<std::pair<StationId, uint64_t>, Reassembly> reassembly_;
  EventId sweep_timer_ = kInvalidEventId;

  std::unordered_map<StationId, PeerHistory> history_;
};

}  // namespace eden

#endif  // EDEN_SRC_NET_TRANSPORT_H_
