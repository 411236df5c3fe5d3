#include "qgear/comm/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>

#include "qgear/common/error.hpp"
#include "qgear/fault/fault.hpp"

namespace qgear::comm {
namespace {

TEST(Comm, PointToPoint) {
  World w(2);
  w.run([](Communicator& c) {
    if (c.rank() == 0) {
      const std::vector<double> payload = {1.5, 2.5, 3.5};
      c.send_vec<double>(1, 0, payload);
    } else {
      const std::vector<double> got = c.recv_vec<double>(0, 0);
      EXPECT_EQ(got, (std::vector<double>{1.5, 2.5, 3.5}));
    }
  });
}

TEST(Comm, TagSelectivity) {
  World w(2);
  w.run([](Communicator& c) {
    if (c.rank() == 0) {
      const std::vector<std::int32_t> a = {1}, b = {2};
      c.send_vec<std::int32_t>(1, /*tag=*/10, a);
      c.send_vec<std::int32_t>(1, /*tag=*/20, b);
    } else {
      // Receive out of order by tag.
      EXPECT_EQ(c.recv_vec<std::int32_t>(0, 20), std::vector<std::int32_t>{2});
      EXPECT_EQ(c.recv_vec<std::int32_t>(0, 10), std::vector<std::int32_t>{1});
    }
  });
}

TEST(Comm, PerPairFifoOrdering) {
  World w(2);
  w.run([](Communicator& c) {
    if (c.rank() == 0) {
      for (std::int32_t i = 0; i < 100; ++i) {
        const std::vector<std::int32_t> v = {i};
        c.send_vec<std::int32_t>(1, 0, v);
      }
    } else {
      for (std::int32_t i = 0; i < 100; ++i) {
        EXPECT_EQ(c.recv_vec<std::int32_t>(0, 0),
                  std::vector<std::int32_t>{i});
      }
    }
  });
}

TEST(Comm, SendRecvExchange) {
  World w(4);
  w.run([](Communicator& c) {
    const int peer = c.rank() ^ 1;
    const std::vector<std::int64_t> mine = {c.rank() * 100ll};
    const auto theirs = c.sendrecv_vec<std::int64_t>(peer, 7, mine);
    EXPECT_EQ(theirs, std::vector<std::int64_t>{peer * 100ll});
  });
}

TEST(Comm, Barrier) {
  World w(4);
  std::atomic<int> phase1{0};
  w.run([&](Communicator& c) {
    ++phase1;
    c.barrier();
    // Everyone must have passed phase 1 before anyone proceeds.
    EXPECT_EQ(phase1.load(), 4);
  });
}

TEST(Comm, AllreduceSum) {
  World w(8);
  w.run([](Communicator& c) {
    const double total = c.allreduce_sum(static_cast<double>(c.rank()));
    EXPECT_DOUBLE_EQ(total, 28.0);  // 0+1+...+7
    // Second round works after the first (generation handling).
    const double total2 = c.allreduce_sum(1.0);
    EXPECT_DOUBLE_EQ(total2, 8.0);
  });
}

TEST(Comm, Broadcast) {
  World w(4);
  w.run([](Communicator& c) {
    std::vector<std::uint8_t> data;
    if (c.rank() == 2) data = {9, 8, 7};
    c.broadcast(data, 2);
    EXPECT_EQ(data, (std::vector<std::uint8_t>{9, 8, 7}));
  });
}

TEST(Comm, TraceRecordsTransfers) {
  World w(2);
  w.run([](Communicator& c) {
    if (c.rank() == 0) {
      const std::vector<double> v(100, 1.0);
      c.send_vec<double>(1, 3, v);
    } else {
      c.recv_vec<double>(0, 3);
    }
  });
  ASSERT_EQ(w.trace().entries.size(), 1u);
  EXPECT_EQ(w.trace().entries[0].src, 0);
  EXPECT_EQ(w.trace().entries[0].dst, 1);
  EXPECT_EQ(w.trace().entries[0].bytes, 800u);
  EXPECT_EQ(w.trace().total_bytes, 800u);
  w.clear_trace();
  EXPECT_EQ(w.trace().total_bytes, 0u);
}

TEST(Comm, ExceptionInRankPropagates) {
  World w(2);
  EXPECT_THROW(
      w.run([](Communicator& c) {
        if (c.rank() == 0) throw Error("rank 0 exploded");
        // Rank 1 blocks on a message that never comes; the failure of
        // rank 0 must unblock it with CommError (swallowed here).
        try {
          c.recv(0, 0);
        } catch (const CommError&) {
        }
      }),
      Error);
}

TEST(Comm, FailureInjectionUnblocksReceiver) {
  World w(2);
  EXPECT_THROW(
      w.run([&](Communicator& c) {
        if (c.rank() == 0) {
          w.inject_failure(0);
          throw CommError("injected");
        }
        c.recv(0, 0);  // must throw CommError, not hang
      }),
      CommError);
}

TEST(Comm, InvalidRanksRejected) {
  World w(2);
  w.run([](Communicator& c) {
    if (c.rank() == 0) {
      const std::vector<std::uint8_t> v = {1};
      EXPECT_THROW(c.send(2, 0, v), InvalidArgument);
      EXPECT_THROW(c.send(0, 0, v), InvalidArgument);
      EXPECT_THROW(c.recv(-1, 0), InvalidArgument);
    }
  });
}

TEST(Comm, SingleRankWorld) {
  World w(1);
  w.run([](Communicator& c) {
    EXPECT_EQ(c.size(), 1);
    c.barrier();
    EXPECT_DOUBLE_EQ(c.allreduce_sum(5.0), 5.0);
  });
}

TEST(Comm, BytesSentAccounting) {
  World w(2);
  w.run([](Communicator& c) {
    if (c.rank() == 0) {
      const std::vector<std::uint8_t> v(123, 0);
      c.send(1, 0, v);
      EXPECT_EQ(c.bytes_sent(), 123u);
    } else {
      c.recv(0, 0);
      EXPECT_EQ(c.bytes_sent(), 0u);
    }
  });
}

TEST(Comm, TryRecvNonBlocking) {
  World w(2);
  w.run([](Communicator& c) {
    std::vector<std::uint8_t> out;
    if (c.rank() == 1) {
      // Nothing sent yet: must return false without blocking.
      EXPECT_FALSE(c.try_recv(0, 7, out));
    }
    c.barrier();
    if (c.rank() == 0) {
      const std::vector<std::uint8_t> payload = {9, 8, 7};
      c.send(1, 7, payload);
    }
    c.barrier();
    if (c.rank() == 1) {
      EXPECT_FALSE(c.try_recv(0, 99, out));  // wrong tag stays queued
      EXPECT_TRUE(c.try_recv(0, 7, out));
      EXPECT_EQ(out, (std::vector<std::uint8_t>{9, 8, 7}));
      EXPECT_FALSE(c.try_recv(0, 7, out));  // consumed
    }
  });
}

TEST(Comm, RunRethrowsTheFirstFailure) {
  // Rank 1 fails while rank 0 waits on it. Rank 0 then fails too, with a
  // CommError naming rank 1; run() must surface rank 1's root cause even
  // though rank 0 is the lower rank.
  World w(2);
  EXPECT_THROW(
      w.run([](Communicator& c) {
        if (c.rank() == 1) throw InvalidArgument("rank 1: bad input");
        c.recv(1, 0);
      }),
      InvalidArgument);
}

/// One-round BatchExchange of `mine` with `peer`, in chunks of
/// `chunk_elems` elements (0 = auto); consume(offset, chunk) gets each
/// received chunk with its element offset.
template <typename T, typename Fn>
void exchange_with(Communicator& c, int peer, int tag,
                   std::span<const T> mine, std::uint64_t chunk_elems,
                   Fn&& consume, ResilienceOptions res = {}) {
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(mine.data()), mine.size_bytes());
  BatchExchange ex(c, tag,
                   {{.peer = peer,
                     .send = bytes,
                     .recv_bytes = bytes.size(),
                     .chunk_bytes = chunk_elems * sizeof(T)}},
                   res);
  ex.post();
  ex.finish([&](std::size_t, std::uint64_t off,
                std::span<const std::uint8_t> payload) {
    ASSERT_EQ(off % sizeof(T), 0u);
    ASSERT_EQ(payload.size() % sizeof(T), 0u);
    std::vector<T> chunk(payload.size() / sizeof(T));
    std::memcpy(chunk.data(), payload.data(), payload.size());
    consume(off / sizeof(T), std::span<const T>(chunk));
  });
}

TEST(Comm, ChunkedExchangeReassembles) {
  World w(2);
  w.run([](Communicator& c) {
    std::vector<std::int32_t> mine(10);
    for (int i = 0; i < 10; ++i) mine[i] = c.rank() * 100 + i;
    std::vector<std::int32_t> got(10, -1);
    std::vector<std::uint64_t> offsets;
    exchange_with<std::int32_t>(
        c, 1 - c.rank(), 3, mine, /*chunk_elems=*/3,
        [&](std::uint64_t off, std::span<const std::int32_t> chunk) {
          offsets.push_back(off);
          std::copy(chunk.begin(), chunk.end(),
                    got.begin() + static_cast<std::ptrdiff_t>(off));
        });
    EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 3, 6, 9}));
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(got[i], (1 - c.rank()) * 100 + i);
    }
  });
}

TEST(Comm, ChunkedExchangeDegeneratesToOneShot) {
  World w(2);
  w.run([](Communicator& c) {
    const std::vector<double> mine = {1.0 + c.rank(), 2.0 + c.rank()};
    int tag = 4;
    for (std::uint64_t chunk : {std::uint64_t{0}, std::uint64_t{16}}) {
      int calls = 0;
      exchange_with<double>(
          c, 1 - c.rank(), tag++, mine, chunk,
          [&](std::uint64_t off, std::span<const double> theirs) {
            ++calls;
            EXPECT_EQ(off, 0u);
            ASSERT_EQ(theirs.size(), 2u);
            EXPECT_DOUBLE_EQ(theirs[0], 2.0 - c.rank());
            EXPECT_DOUBLE_EQ(theirs[1], 3.0 - c.rank());
          });
      EXPECT_EQ(calls, 1);
    }
  });
}

TEST(Comm, ExchangeTraceCountsPayloadOnly) {
  // The chunk offset rides in the message envelope, so the trace holds
  // exactly the exchanged payload on both paths; the resilient path's
  // DONE handshake adds messages but no bytes.
  for (const double timeout_s : {0.0, 10.0}) {
    World w(2);
    w.run([&](Communicator& c) {
      const std::vector<double> mine(64, 1.0 * c.rank());
      ResilienceOptions res;
      res.timeout_s = timeout_s;
      exchange_with<double>(c, 1 - c.rank(), 5, mine, /*chunk_elems=*/16,
                            [](std::uint64_t, std::span<const double>) {},
                            res);
    });
    EXPECT_EQ(w.trace().total_bytes, 2u * 64u * sizeof(double))
        << "timeout_s=" << timeout_s;
    EXPECT_EQ(w.trace().entries.size(), timeout_s > 0 ? 2u * 4u + 2u : 8u);
  }
}

TEST(Comm, ResilientExchangeSurvivesDroppedChunks) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.site(fault::Site::comm_drop).probability = 0.3;
  fault::ArmScope arm(plan);

  World w(2);
  w.run([](Communicator& c) {
    std::vector<std::int32_t> mine(64);
    for (int i = 0; i < 64; ++i) mine[i] = c.rank() * 1000 + i;
    std::vector<std::int32_t> got(64, -1);
    ResilienceOptions res;
    res.timeout_s = 0.02;
    res.max_resends = 50;  // plenty: re-sent chunks can be dropped again
    exchange_with<std::int32_t>(
        c, 1 - c.rank(), 9, mine, /*chunk_elems=*/8,
        [&](std::uint64_t off, std::span<const std::int32_t> chunk) {
          std::copy(chunk.begin(), chunk.end(),
                    got.begin() + static_cast<std::ptrdiff_t>(off));
        },
        res);
    // Integrity: every element arrives exactly where it belongs despite
    // the 30% per-chunk drop rate.
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(got[i], (1 - c.rank()) * 1000 + i) << "element " << i;
    }
  });
}

TEST(Comm, ResilientExchangeExhaustsResendBudget) {
  fault::FaultPlan plan;
  plan.site(fault::Site::comm_drop).probability = 1.0;  // black hole
  fault::ArmScope arm(plan);

  World w(2);
  w.run([](Communicator& c) {
    const std::vector<double> mine = {1.0, 2.0, 3.0, 4.0};
    ResilienceOptions res;
    res.timeout_s = 0.005;
    res.max_resends = 2;
    EXPECT_THROW(exchange_with<double>(
                     c, 1 - c.rank(), 9, mine, /*chunk_elems=*/2,
                     [](std::uint64_t, std::span<const double>) {}, res),
                 CommError);
  });
}

TEST(Comm, ResilientExchangeRejectsBadArguments) {
  World w(2);
  w.run([](Communicator& c) {
    const std::vector<double> mine = {1.0, 2.0};
    ResilienceOptions res;
    res.timeout_s = 0.01;
    const auto sink = [](std::uint64_t, std::span<const double>) {};
    if (c.rank() == 0) {
      // Self-exchange and negative tags are caller bugs, not faults.
      EXPECT_THROW(exchange_with<double>(c, 0, 9, mine, 1, sink, res),
                   InvalidArgument);
      EXPECT_THROW(exchange_with<double>(c, 1, -3, mine, 1, sink, res),
                   InvalidArgument);
      EXPECT_THROW(exchange_with<double>(c, 5, 9, mine, 1, sink, res),
                   InvalidArgument);
    }
  });
}

TEST(Comm, ResilientExchangeRejectsMalformedFrames) {
  World w(2);
  w.run([](Communicator& c) {
    ResilienceOptions res;
    res.timeout_s = 0.05;
    res.max_resends = 1;
    if (c.rank() == 1) {
      // A rogue 3-byte message on the data tag: its envelope says offset
      // 0, where an 8-byte chunk belongs.
      c.send(0, 9, std::vector<std::uint8_t>{1, 2, 3});
      return;
    }
    const std::vector<double> mine = {1.0, 2.0};
    EXPECT_THROW(exchange_with<double>(
                     c, 1, 9, mine, /*chunk_elems=*/1,
                     [](std::uint64_t, std::span<const double>) {}, res),
                 FormatError);
  });
}

}  // namespace
}  // namespace qgear::comm
