// In-process MPI-like message passing.
//
// The paper distributes the state vector over GPUs with CUDA-aware Cray
// MPICH. We reproduce the subset the distributed engine needs — ranked
// SPMD execution, tagged point-to-point messages with per-pair FIFO
// ordering, sendrecv, barrier, broadcast and allreduce — as an in-process
// library: each rank is a thread, each (src,dst) pair a mailbox.
//
// Every transfer is recorded in a CommTrace so the interconnect performance
// model (src/qgear/perfmodel) can price the exact communication schedule a
// run produced.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "qgear/common/error.hpp"

namespace qgear::comm {

/// Raised when a peer rank was marked failed (failure-injection tests) or a
/// collective is used inconsistently.
class CommError : public Error {
 public:
  explicit CommError(const std::string& what) : Error(what) {}
};

/// One recorded point-to-point transfer.
struct TraceEntry {
  int src = 0;
  int dst = 0;
  std::uint64_t bytes = 0;
  int tag = 0;
};

/// Aggregated transfer log for one World.
struct CommTrace {
  std::vector<TraceEntry> entries;
  std::uint64_t total_bytes = 0;

  void record(int src, int dst, std::uint64_t bytes, int tag) {
    entries.push_back({src, dst, bytes, tag});
    total_bytes += bytes;
  }
};

class World;
class BatchExchange;

/// Interconnect tier of a rank pair. Mirrors the hierarchy the
/// performance model prices (NVLink domain inside a node vs inter-node
/// Slingshot), surfaced to the *real* schedule so exchanges can order and
/// chunk transfers per tier.
enum class Tier : int { nvlink = 0, internode = 1 };
inline constexpr std::size_t kNumTiers = 2;

const char* tier_name(Tier t);

/// Static rank-to-domain map: ranks [k*ranks_per_domain,
/// (k+1)*ranks_per_domain) share one NVLink domain. ranks_per_domain == 0
/// (or 1 domain covering everything) treats every pair as in-domain.
struct Topology {
  unsigned ranks_per_domain = 0;

  Tier tier(int a, int b) const {
    if (ranks_per_domain == 0) return Tier::nvlink;
    return static_cast<unsigned>(a) / ranks_per_domain ==
                   static_cast<unsigned>(b) / ranks_per_domain
               ? Tier::nvlink
               : Tier::internode;
  }
};

/// Default chunk size for a pipelined transfer of `message_bytes` over
/// `tier`. Small messages return 0 (send in one piece: per-chunk
/// overhead would dominate); large ones pick a chunk that keeps a few
/// chunks in flight, smaller across the slower inter-node tier so the
/// pipeline stays fed without oversized store-and-forward hops.
std::uint64_t auto_chunk_bytes(std::uint64_t message_bytes, Tier tier);

/// Tunables for BatchExchange. timeout_s <= 0 is the lossless exchange:
/// no receive deadline, no DONE handshake and no comm fault hooks.
struct ResilienceOptions {
  double timeout_s = 0.0;   ///< per-wait receive deadline (seconds)
  unsigned max_resends = 3; ///< per-chunk re-send budget before CommError
};

/// Per-rank handle; all operations are called from that rank's thread.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Blocking tagged send (buffered: copies and returns).
  void send(int dest, int tag, std::span<const std::uint8_t> data);

  /// Blocking receive of the next message from `src` with `tag`.
  std::vector<std::uint8_t> recv(int src, int tag);

  /// Simultaneous exchange with `peer` (deadlock-free for matched calls).
  std::vector<std::uint8_t> sendrecv(int peer, int tag,
                                     std::span<const std::uint8_t> data);

  /// Typed conveniences.
  template <typename T>
  void send_vec(int dest, int tag, std::span<const T> values) {
    send(dest, tag,
         {reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size_bytes()});
  }

  template <typename T>
  std::vector<T> recv_vec(int src, int tag) {
    const std::vector<std::uint8_t> raw = recv(src, tag);
    QGEAR_CHECK_FORMAT(raw.size() % sizeof(T) == 0,
                       "comm: message size not a multiple of element size");
    std::vector<T> out(raw.size() / sizeof(T));
    // memcpy's pointers must be non-null even for zero bytes, and an
    // empty payload (a rank that drew no shots) has none.
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  template <typename T>
  std::vector<T> sendrecv_vec(int peer, int tag, std::span<const T> values) {
    const std::vector<std::uint8_t> raw = sendrecv(
        peer, tag,
        {reinterpret_cast<const std::uint8_t*>(values.data()),
         values.size_bytes()});
    QGEAR_CHECK_FORMAT(raw.size() % sizeof(T) == 0,
                       "comm: message size not a multiple of element size");
    std::vector<T> out(raw.size() / sizeof(T));
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  /// Non-blocking receive: if a message from `src` with `tag` is already
  /// queued, moves it into `out` and returns true; otherwise returns false
  /// immediately. Lets pipelined callers drain ready chunks between
  /// compute steps instead of blocking.
  bool try_recv(int src, int tag, std::vector<std::uint8_t>& out);

  /// Synchronizes all live ranks.
  void barrier();

  /// Sum-reduction of one double across ranks; every rank gets the total.
  double allreduce_sum(double local);

  /// Root's buffer is copied to every rank.
  void broadcast(std::vector<std::uint8_t>& data, int root);

  std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// The world's rank-to-domain topology (set before the SPMD region).
  const Topology& topology() const;

  /// Interconnect tier between this rank and `peer`.
  Tier tier_to(int peer) const { return topology().tier(rank_, peer); }

 private:
  friend class World;
  friend class BatchExchange;
  Communicator(World* world, int rank) : world_(world), rank_(rank) {}

  /// send() with `offset` stamped on the message envelope: a
  /// BatchExchange chunk's byte position in its stream, or a control
  /// message's argument. The payload stays the caller's bytes alone.
  void send_at(int dest, int tag, std::uint64_t offset,
               std::span<const std::uint8_t> data);

  World* world_;
  int rank_;
  std::uint64_t bytes_sent_ = 0;
};

/// One pairwise leg of a BatchExchange: `send` goes to `peer`, and
/// `recv_bytes` bytes are expected back from it. The send span must stay
/// alive and unchanged until the exchange finishes (resilient re-sends
/// read from it).
/// chunk_bytes == 0 derives the chunk size from the message size and the
/// pair's tier (auto_chunk_bytes).
struct ExchangeRound {
  int peer = -1;
  std::span<const std::uint8_t> send;
  std::uint64_t recv_bytes = 0;
  std::uint64_t chunk_bytes = 0;
};

/// The chunked exchange: every round is posted up front — NVLink-domain
/// rounds first and wide, inter-node rounds chunk-pipelined behind them —
/// and finish() consumes incoming chunks from any peer in any order as
/// they land. A one-round exchange is a plain pairwise sendrecv.
///
/// Each chunk carries its byte offset in the message envelope, so the
/// payload (and the CommTrace) is data only and lands in a buffer of its
/// own. With resilience enabled (timeout_s > 0) receives have a deadline
/// whose expiry requests a bounded re-send of the missing chunks, each
/// leg ends with a DONE handshake so re-send requests are serviced until
/// the peer has everything, and the comm_delay/comm_drop fault hooks
/// apply to every chunk sent.
class BatchExchange {
 public:
  /// consume(round, offset_bytes, payload): chunks arrive in any order,
  /// across rounds; offset_bytes is the chunk's position in the peer's
  /// recv_bytes stream.
  using ConsumeFn = std::function<void(
      std::size_t, std::uint64_t, std::span<const std::uint8_t>)>;

  /// Rounds must target distinct peers (one message stream per peer).
  BatchExchange(Communicator& comm, int tag, std::vector<ExchangeRound> rounds,
                ResilienceOptions resilience = {});

  /// Posts every round's chunks, intra-domain rounds first. Buffered
  /// sends return immediately; finish() drains.
  void post();

  /// Drives the exchange to completion: drains all chunks and, when
  /// resilient, completes the per-peer DONE handshakes.
  void finish(const ConsumeFn& consume);

  /// Payload bytes this rank sent over `t` links, re-sends included.
  std::uint64_t sent_tier_bytes(Tier t) const {
    return tier_bytes_[static_cast<std::size_t>(t)];
  }

  std::size_t num_rounds() const { return rounds_.size(); }
  const ExchangeRound& round(std::size_t i) const { return rounds_[i]; }
  Tier round_tier(std::size_t i) const {
    return comm_.tier_to(rounds_[i].peer);
  }
  /// Resolved chunk size for round i (after auto-derivation).
  std::uint64_t round_chunk_bytes(std::size_t i) const {
    return st_[i].chunk_bytes;
  }

 private:
  struct RoundState {
    std::uint64_t chunk_bytes = 0;   ///< resolved (never 0 unless empty)
    std::uint64_t num_chunks = 0;
    std::uint64_t have_count = 0;
    std::vector<bool> have;          ///< incoming chunk bitmap
    std::vector<unsigned> resends;   ///< per-chunk re-send requests issued
    bool sent_done = false;
    bool peer_done = false;
  };

  /// Drains every chunk already queued without blocking. Returns true if
  /// at least one data chunk was consumed.
  bool poll(const ConsumeFn& consume);
  /// Blocks until at least one message arrives (consuming it) or — on the
  /// resilient path — a receive deadline passes, in which case missing
  /// chunks are re-requested. No-op when already done.
  void wait(const ConsumeFn& consume);
  /// All expected chunks consumed (and, when resilient, all peers done).
  bool done() const;

  void send_chunk(std::size_t r, std::uint64_t offset);
  /// Handles one received message (data or ctrl). Returns true for data.
  bool process(std::size_t r, int got_tag, std::uint64_t offset,
               std::span<const std::uint8_t> data, const ConsumeFn& consume);
  void maybe_send_done(std::size_t r);
  void request_missing(std::size_t r);

  Communicator& comm_;
  int tag_;
  int ctrl_;
  std::vector<ExchangeRound> rounds_;
  std::vector<RoundState> st_;
  std::vector<std::size_t> order_;     ///< posting order, NVLink first
  std::vector<int> peer_of_;           ///< round -> peer (srcs for waits)
  ResilienceOptions resilience_;
  bool resilient_ = false;
  bool posted_ = false;
  unsigned idle_timeouts_ = 0;
  std::uint64_t tier_bytes_[kNumTiers] = {0, 0};
};

/// Owns the mailboxes and synchronization state for a fixed rank count.
class World {
 public:
  explicit World(int size);

  int size() const { return size_; }

  /// Runs fn as an SPMD program: one thread per rank. After all threads
  /// join, the exception of the rank that failed first is rethrown; the
  /// CommErrors its failure caused in waiting peers are dropped.
  void run(const std::function<void(Communicator&)>& fn);

  /// Convenience: construct a World and run in one call.
  static void execute(int size, const std::function<void(Communicator&)>& fn);

  /// Marks a rank failed: blocking operations involving it throw CommError.
  void inject_failure(int rank);

  /// Sets the rank-to-domain topology. Call before run(): the SPMD region
  /// reads it without locking.
  void set_topology(Topology t) { topology_ = t; }
  const Topology& topology() const { return topology_; }

  const CommTrace& trace() const { return trace_; }
  void clear_trace();

 private:
  friend class Communicator;
  friend class BatchExchange;

  struct Message {
    int tag = 0;
    std::uint64_t offset = 0;  ///< see Communicator::send_at
    std::vector<std::uint8_t> data;
  };

  struct Mailbox {
    std::deque<Message> queue;
  };

  Mailbox& mailbox(int src, int dst) {
    return mailboxes_[static_cast<std::size_t>(src) * size_ + dst];
  }

  void deliver(int src, int dst, int tag, std::uint64_t offset,
               std::span<const std::uint8_t> data);
  std::vector<std::uint8_t> take(int src, int dst, int tag);
  bool try_take(int src, int dst, int tag, Message& out);
  /// Waits for a message from any rank in `srcs` matching tag_a or tag_b;
  /// `*got_index` reports which entry of `srcs` delivered. Without a
  /// deadline it waits until a message or a peer failure arrives; with
  /// one it returns false once the deadline passes.
  bool take_from_set(
      std::span<const int> srcs, int dst, int tag_a, int tag_b,
      std::optional<std::chrono::steady_clock::time_point> deadline,
      Message& out, std::size_t* got_index);
  void check_alive(int rank) const;

  int size_;
  std::vector<Mailbox> mailboxes_;
  std::vector<bool> failed_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;

  // Reusable counting barrier.
  int barrier_waiting_ = 0;
  std::uint64_t barrier_generation_ = 0;

  // Allreduce scratch.
  double reduce_accum_ = 0.0;
  int reduce_count_ = 0;
  double reduce_result_ = 0.0;
  std::uint64_t reduce_generation_ = 0;

  Topology topology_;
  CommTrace trace_;
};

}  // namespace qgear::comm
