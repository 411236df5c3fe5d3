#include "qgear/comm/comm.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "qgear/fault/fault.hpp"
#include "qgear/obs/metrics.hpp"

namespace qgear::comm {

namespace {

// Cached metric references (first lookup takes the registry mutex).
obs::Counter& messages_counter() {
  static obs::Counter& c = obs::Registry::global().counter("comm.messages");
  return c;
}

obs::Counter& bytes_counter() {
  static obs::Counter& c = obs::Registry::global().counter("comm.bytes");
  return c;
}

obs::Counter& barriers_counter() {
  static obs::Counter& c = obs::Registry::global().counter("comm.barriers");
  return c;
}

obs::Histogram& barrier_wait_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("comm.barrier_wait_us");
  return h;
}

obs::Counter& chunks_dropped_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("comm.chunks_dropped");
  return c;
}

obs::Counter& chunks_resent_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("comm.chunks_resent");
  return c;
}

obs::Counter& resend_requests_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("comm.resend_requests");
  return c;
}

obs::Counter& chunk_timeouts_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("comm.chunk_timeouts");
  return c;
}

// Resilient-exchange control plane. Control messages ride a tag derived
// from the data tag: negative, below the broadcast tag (-42), so they
// never collide with op tags [0, 2^28), sampler tags (>= 2^28), or
// broadcasts. They carry no payload: the envelope offset names the chunk
// to re-send, or is kDone once the sender holds every chunk.
constexpr std::uint64_t kDone = ~std::uint64_t{0};

int ctrl_tag_for(int tag) { return -tag - 100; }

/// Microsecond stopwatch for wait-time histograms.
class WaitTimer {
 public:
  double elapsed_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

}  // namespace

// ---- Topology ----------------------------------------------------------

const char* tier_name(Tier t) {
  return t == Tier::nvlink ? "nvlink" : "internode";
}

std::uint64_t auto_chunk_bytes(std::uint64_t message_bytes, Tier tier) {
  // Below this, per-chunk mailbox traffic costs more than any pipelining
  // buys back.
  constexpr std::uint64_t kOneShotLimit = 64ull << 10;
  if (message_bytes <= kOneShotLimit) return 0;
  if (tier == Tier::nvlink) {
    // Fast links: few large chunks keep per-message overhead negligible
    // while still letting receivers start early.
    return std::clamp<std::uint64_t>(message_bytes / 4, 256ull << 10,
                                     4ull << 20);
  }
  // Slow links: more, smaller chunks so the receive pipeline stays fed and
  // re-sends (resilient path) retransmit less.
  return std::clamp<std::uint64_t>(message_bytes / 8, 128ull << 10,
                                   1ull << 20);
}

// ---- Communicator ------------------------------------------------------

int Communicator::size() const { return world_->size(); }

const Topology& Communicator::topology() const { return world_->topology(); }

void Communicator::send(int dest, int tag,
                        std::span<const std::uint8_t> data) {
  send_at(dest, tag, 0, data);
}

void Communicator::send_at(int dest, int tag, std::uint64_t offset,
                           std::span<const std::uint8_t> data) {
  QGEAR_CHECK_ARG(dest >= 0 && dest < size(), "comm: destination out of range");
  QGEAR_CHECK_ARG(dest != rank_, "comm: self-send is not supported");
  world_->deliver(rank_, dest, tag, offset, data);
  bytes_sent_ += data.size();
  messages_counter().add();
  bytes_counter().add(data.size());
}

std::vector<std::uint8_t> Communicator::recv(int src, int tag) {
  QGEAR_CHECK_ARG(src >= 0 && src < size(), "comm: source out of range");
  QGEAR_CHECK_ARG(src != rank_, "comm: self-receive is not supported");
  return world_->take(src, rank_, tag);
}

std::vector<std::uint8_t> Communicator::sendrecv(
    int peer, int tag, std::span<const std::uint8_t> data) {
  // Buffered sends make matched sendrecv pairs deadlock-free.
  send(peer, tag, data);
  return recv(peer, tag);
}

bool Communicator::try_recv(int src, int tag,
                            std::vector<std::uint8_t>& out) {
  QGEAR_CHECK_ARG(src >= 0 && src < size(), "comm: source out of range");
  QGEAR_CHECK_ARG(src != rank_, "comm: self-receive is not supported");
  World::Message msg;
  if (!world_->try_take(src, rank_, tag, msg)) return false;
  out = std::move(msg.data);
  return true;
}

void Communicator::barrier() {
  const WaitTimer wait;
  barriers_counter().add();
  std::unique_lock<std::mutex> lock(world_->mutex_);
  world_->check_alive(rank_);
  const std::uint64_t gen = world_->barrier_generation_;
  const int live = size() - static_cast<int>(std::count(
                                world_->failed_.begin(),
                                world_->failed_.end(), true));
  if (++world_->barrier_waiting_ >= live) {
    world_->barrier_waiting_ = 0;
    ++world_->barrier_generation_;
    world_->cv_.notify_all();
    barrier_wait_hist().observe(wait.elapsed_us());
    return;
  }
  world_->cv_.wait(lock, [&] {
    return world_->barrier_generation_ != gen || world_->failed_[rank_];
  });
  if (world_->failed_[rank_]) throw CommError("comm: rank failed in barrier");
  barrier_wait_hist().observe(wait.elapsed_us());
}

double Communicator::allreduce_sum(double local) {
  std::unique_lock<std::mutex> lock(world_->mutex_);
  world_->check_alive(rank_);
  const std::uint64_t gen = world_->reduce_generation_;
  world_->reduce_accum_ += local;
  if (++world_->reduce_count_ >= size()) {
    world_->reduce_result_ = world_->reduce_accum_;
    world_->reduce_accum_ = 0.0;
    world_->reduce_count_ = 0;
    ++world_->reduce_generation_;
    world_->cv_.notify_all();
    return world_->reduce_result_;
  }
  world_->cv_.wait(lock, [&] {
    return world_->reduce_generation_ != gen || world_->failed_[rank_];
  });
  if (world_->failed_[rank_])
    throw CommError("comm: rank failed in allreduce");
  return world_->reduce_result_;
}

void Communicator::broadcast(std::vector<std::uint8_t>& data, int root) {
  QGEAR_CHECK_ARG(root >= 0 && root < size(), "comm: root out of range");
  constexpr int kBcastTag = -42;
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send(r, kBcastTag, data);
    }
  } else {
    data = recv(root, kBcastTag);
  }
}

// ---- BatchExchange -----------------------------------------------------

BatchExchange::BatchExchange(Communicator& comm, int tag,
                             std::vector<ExchangeRound> rounds,
                             ResilienceOptions resilience)
    : comm_(comm),
      tag_(tag),
      ctrl_(ctrl_tag_for(tag)),
      rounds_(std::move(rounds)),
      resilience_(resilience),
      resilient_(resilience.timeout_s > 0.0) {
  QGEAR_CHECK_ARG(tag >= 0 && tag < std::numeric_limits<int>::max() - 100,
                  "comm: batch exchange needs a non-negative tag");
  st_.resize(rounds_.size());
  peer_of_.reserve(rounds_.size());
  for (std::size_t r = 0; r < rounds_.size(); ++r) {
    const ExchangeRound& round = rounds_[r];
    QGEAR_CHECK_ARG(round.peer >= 0 && round.peer < comm_.size() &&
                        round.peer != comm_.rank(),
                    "comm: batch exchange peer out of range");
    QGEAR_CHECK_ARG(!round.send.empty() && round.recv_bytes > 0,
                    "comm: batch exchange round must move data both ways");
    for (std::size_t q = 0; q < r; ++q) {
      QGEAR_CHECK_ARG(rounds_[q].peer != round.peer,
                      "comm: batch exchange peers must be distinct");
    }
    RoundState& st = st_[r];
    // Both sides must resolve the same chunk size for a leg; deriving from
    // max(send, recv) is symmetric under the swap of perspective, and the
    // tier is symmetric by construction.
    std::uint64_t cb = round.chunk_bytes;
    if (cb == 0) {
      cb = auto_chunk_bytes(
          std::max<std::uint64_t>(round.send.size(), round.recv_bytes),
          comm_.tier_to(round.peer));
    }
    if (cb == 0) {
      cb = std::max<std::uint64_t>(round.send.size(), round.recv_bytes);
    }
    st.chunk_bytes = cb;
    st.num_chunks = (round.recv_bytes + cb - 1) / cb;
    st.have.assign(st.num_chunks, false);
    if (resilient_) {
      st.resends.assign(st.num_chunks, 0);
    } else {
      st.peer_done = true;  // the lossless path has no DONE handshake
    }
    peer_of_.push_back(round.peer);
  }
  order_.resize(rounds_.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::stable_sort(order_.begin(), order_.end(),
                   [this](std::size_t a, std::size_t b) {
                     return round_tier(a) < round_tier(b);
                   });
}

void BatchExchange::send_chunk(std::size_t r, std::uint64_t offset) {
  const ExchangeRound& round = rounds_[r];
  const std::uint64_t len =
      std::min<std::uint64_t>(st_[r].chunk_bytes, round.send.size() - offset);
  tier_bytes_[static_cast<std::size_t>(round_tier(r))] += len;
  if (resilient_) {
    fault::maybe_delay(fault::Site::comm_delay);
    if (fault::should_inject(fault::Site::comm_drop)) {
      // Model a lost packet: the message is never delivered. The peer's
      // receive timeout + re-send request recovers it.
      chunks_dropped_counter().add();
      return;
    }
  }
  comm_.send_at(round.peer, tag_, offset, round.send.subspan(offset, len));
}

void BatchExchange::post() {
  QGEAR_EXPECTS(!posted_);
  posted_ = true;
  for (const std::size_t r : order_) {
    const std::uint64_t n = rounds_[r].send.size();
    for (std::uint64_t off = 0; off < n; off += st_[r].chunk_bytes) {
      send_chunk(r, off);
    }
  }
}

bool BatchExchange::process(std::size_t r, int got_tag, std::uint64_t offset,
                            std::span<const std::uint8_t> data,
                            const ConsumeFn& consume) {
  RoundState& st = st_[r];
  const ExchangeRound& round = rounds_[r];
  if (got_tag == tag_) {
    QGEAR_CHECK_FORMAT(
        offset < round.recv_bytes && offset % st.chunk_bytes == 0,
        "comm: exchange chunk offset out of range");
    const std::uint64_t idx = offset / st.chunk_bytes;
    QGEAR_CHECK_FORMAT(
        data.size() ==
            std::min<std::uint64_t>(st.chunk_bytes, round.recv_bytes - offset),
        "comm: exchange chunk size mismatch");
    if (st.have[idx]) return false;  // duplicate from a crossed re-send
    st.have[idx] = true;
    ++st.have_count;
    consume(r, offset, data);
    maybe_send_done(r);
    return true;
  }
  QGEAR_CHECK_FORMAT(data.empty(), "comm: malformed exchange control message");
  if (offset == kDone) {
    st.peer_done = true;
    return false;
  }
  QGEAR_CHECK_FORMAT(
      offset < round.send.size() && offset % st.chunk_bytes == 0,
      "comm: re-send request offset out of range");
  chunks_resent_counter().add();
  send_chunk(r, offset);
  return false;
}

void BatchExchange::maybe_send_done(std::size_t r) {
  RoundState& st = st_[r];
  if (!resilient_ || st.sent_done || st.have_count < st.num_chunks) return;
  comm_.send_at(peer_of_[r], ctrl_, kDone, {});
  st.sent_done = true;
}

void BatchExchange::request_missing(std::size_t r) {
  RoundState& st = st_[r];
  for (std::uint64_t idx = 0; idx < st.num_chunks; ++idx) {
    if (st.have[idx]) continue;
    if (st.resends[idx] >= resilience_.max_resends) {
      throw CommError(
          "comm: chunk at offset " + std::to_string(idx * st.chunk_bytes) +
          " from rank " + std::to_string(peer_of_[r]) + " lost after " +
          std::to_string(resilience_.max_resends) + " re-send requests");
    }
    ++st.resends[idx];
    resend_requests_counter().add();
    comm_.send_at(peer_of_[r], ctrl_, idx * st.chunk_bytes, {});
  }
}

bool BatchExchange::poll(const ConsumeFn& consume) {
  QGEAR_EXPECTS(posted_);
  World& world = *comm_.world_;
  bool consumed = false;
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t r = 0; r < rounds_.size(); ++r) {
      World::Message msg;
      if (world.try_take(peer_of_[r], comm_.rank(), tag_, msg)) {
        consumed |= process(r, tag_, msg.offset, msg.data, consume);
        progress = true;
      }
      if (resilient_ && world.try_take(peer_of_[r], comm_.rank(), ctrl_, msg)) {
        process(r, ctrl_, msg.offset, msg.data, consume);
        progress = true;
      }
    }
  }
  return consumed;
}

void BatchExchange::wait(const ConsumeFn& consume) {
  QGEAR_EXPECTS(posted_);
  if (done()) return;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (resilient_) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(resilience_.timeout_s));
  }
  World::Message msg;
  std::size_t r = 0;
  if (comm_.world_->take_from_set(peer_of_, comm_.rank(), tag_, ctrl_,
                                  deadline, msg, &r)) {
    idle_timeouts_ = 0;
    process(r, msg.tag, msg.offset, msg.data, consume);
    return;
  }
  // Only the resilient path has a deadline to miss.
  chunk_timeouts_counter().add();
  bool missing = false;
  for (std::size_t q = 0; q < rounds_.size(); ++q) {
    if (st_[q].have_count < st_[q].num_chunks) {
      request_missing(q);
      missing = true;
    }
  }
  if (!missing && ++idle_timeouts_ > resilience_.max_resends) {
    // Everything here; peers are either still computing or recovering
    // chunks from us, but the budget for silent waits is spent.
    throw CommError(
        "comm: timed out waiting for peers to finish batch exchange");
  }
}

void BatchExchange::finish(const ConsumeFn& consume) {
  QGEAR_EXPECTS(posted_);
  while (!done()) {
    if (poll(consume)) continue;
    wait(consume);
  }
}

bool BatchExchange::done() const {
  for (const RoundState& st : st_) {
    if (st.have_count < st.num_chunks || !st.peer_done) return false;
  }
  return true;
}

// ---- World -------------------------------------------------------------

World::World(int size) : size_(size) {
  QGEAR_CHECK_ARG(size >= 1, "comm: world size must be >= 1");
  mailboxes_.resize(static_cast<std::size_t>(size) * size);
  failed_.assign(size, false);
}

void World::run(const std::function<void(Communicator&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(size_);
  std::vector<std::exception_ptr> errors(size_);
  // The first rank to fail holds the root cause: peers blocked on it fail
  // afterwards, with a CommError naming it. Recorded before
  // inject_failure releases those peers.
  int first_failed = -1;
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &fn, &errors, &first_failed] {
      Communicator c(this, r);
      try {
        fn(c);
      } catch (...) {
        errors[r] = std::current_exception();
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (first_failed < 0) first_failed = r;
        }
        // Unblock peers that might be waiting on this rank forever.
        inject_failure(r);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_failed >= 0) std::rethrow_exception(errors[first_failed]);
}

void World::execute(int size, const std::function<void(Communicator&)>& fn) {
  World w(size);
  w.run(fn);
}

void World::inject_failure(int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  QGEAR_CHECK_ARG(rank >= 0 && rank < size_, "comm: rank out of range");
  failed_[rank] = true;
  // Release a barrier that is now satisfiable with fewer live ranks.
  const int live = size_ - static_cast<int>(std::count(
                               failed_.begin(), failed_.end(), true));
  if (barrier_waiting_ > 0 && barrier_waiting_ >= live) {
    barrier_waiting_ = 0;
    ++barrier_generation_;
  }
  cv_.notify_all();
}

void World::clear_trace() {
  std::lock_guard<std::mutex> lock(mutex_);
  trace_.entries.clear();
  trace_.total_bytes = 0;
}

void World::deliver(int src, int dst, int tag, std::uint64_t offset,
                    std::span<const std::uint8_t> data) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_alive(src);
  check_alive(dst);
  Mailbox& box = mailbox(src, dst);
  box.queue.push_back({tag, offset, {data.begin(), data.end()}});
  trace_.record(src, dst, data.size(), tag);
  cv_.notify_all();
}

std::vector<std::uint8_t> World::take(int src, int dst, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  check_alive(dst);
  Mailbox& box = mailbox(src, dst);
  for (;;) {
    auto it = std::find_if(box.queue.begin(), box.queue.end(),
                           [tag](const Message& m) { return m.tag == tag; });
    if (it != box.queue.end()) {
      std::vector<std::uint8_t> data = std::move(it->data);
      box.queue.erase(it);
      return data;
    }
    if (failed_[src]) {
      throw CommError("comm: receive from failed rank " +
                      std::to_string(src));
    }
    cv_.wait(lock);
    if (failed_[dst]) throw CommError("comm: receiving rank failed");
  }
}

bool World::take_from_set(
    std::span<const int> srcs, int dst, int tag_a, int tag_b,
    std::optional<std::chrono::steady_clock::time_point> deadline,
    Message& out, std::size_t* got_index) {
  std::unique_lock<std::mutex> lock(mutex_);
  check_alive(dst);
  auto scan = [&]() -> bool {
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      Mailbox& box = mailbox(srcs[i], dst);
      auto it = std::find_if(box.queue.begin(), box.queue.end(),
                             [tag_a, tag_b](const Message& m) {
                               return m.tag == tag_a || m.tag == tag_b;
                             });
      if (it == box.queue.end()) continue;
      out = std::move(*it);
      *got_index = i;
      box.queue.erase(it);
      return true;
    }
    return false;
  };
  for (;;) {
    if (scan()) return true;
    for (const int src : srcs) {
      if (failed_[src]) {
        throw CommError("comm: receive from failed rank " +
                        std::to_string(src));
      }
    }
    if (!deadline) {
      cv_.wait(lock);
    } else if (cv_.wait_until(lock, *deadline) == std::cv_status::timeout) {
      // One last look: a message may have raced the deadline.
      return scan();
    }
    if (failed_[dst]) throw CommError("comm: receiving rank failed");
  }
}

bool World::try_take(int src, int dst, int tag, Message& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_alive(src);
  check_alive(dst);
  Mailbox& box = mailbox(src, dst);
  auto it = std::find_if(box.queue.begin(), box.queue.end(),
                         [tag](const Message& m) { return m.tag == tag; });
  if (it == box.queue.end()) return false;
  out = std::move(*it);
  box.queue.erase(it);
  return true;
}

void World::check_alive(int rank) const {
  if (failed_[rank]) {
    throw CommError("comm: rank " + std::to_string(rank) + " has failed");
  }
}

}  // namespace qgear::comm
