// Message-passing runtime: point-to-point, non-blocking ops, collectives.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "coll/coll.hpp"
#include "runtime/comm.hpp"

namespace swlb::runtime {
namespace {

TEST(Comm, SendRecvPairwise) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      const int v = 42;
      c.sendValue(1, 0, v);
    } else {
      EXPECT_EQ(c.recvValue<int>(0, 0), 42);
    }
  });
}

TEST(Comm, MessagesMatchByTag) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.sendValue(1, /*tag=*/7, 700);
      c.sendValue(1, /*tag=*/3, 300);
    } else {
      // Receive in the opposite order of sending: tags must match.
      EXPECT_EQ(c.recvValue<int>(0, 3), 300);
      EXPECT_EQ(c.recvValue<int>(0, 7), 700);
    }
  });
}

TEST(Comm, FifoOrderPerSourceAndTag) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.sendValue(1, 0, i);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(c.recvValue<int>(0, 0), i);
    }
  });
}

TEST(Comm, AnySourceReceivesFromWhoeverSent) {
  World world(3);
  world.run([](Comm& c) {
    if (c.rank() != 0) {
      c.sendValue(0, 5, c.rank());
    } else {
      int sum = 0;
      sum += c.recvValue<int>(kAnySource, 5);
      sum += c.recvValue<int>(kAnySource, 5);
      EXPECT_EQ(sum, 3);
    }
  });
}

TEST(Comm, SelfMessagesWork) {
  // Wrapped periodic axes with a 1-wide process grid send to self.
  World world(1);
  world.run([](Comm& c) {
    c.sendValue(0, 1, 3.5);
    EXPECT_EQ(c.recvValue<double>(0, 1), 3.5);
  });
}

TEST(Comm, IsendIrecvRoundTrip) {
  World world(2);
  world.run([](Comm& c) {
    std::vector<double> buf(64);
    if (c.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0.0);
      Request r = c.isend(1, 2, buf.data(), buf.size() * sizeof(double));
      r.wait();  // must be a no-op for eager sends
    } else {
      Request r = c.irecv(0, 2, buf.data(), buf.size() * sizeof(double));
      r.wait();
      for (int i = 0; i < 64; ++i) EXPECT_EQ(buf[i], i);
    }
  });
}

TEST(Comm, IrecvTestPollsWithoutBlocking) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.barrier();
      c.sendValue(1, 9, 1);
    } else {
      int v = 0;
      Request r = c.irecv(0, 9, &v, sizeof(v));
      EXPECT_FALSE(r.test());  // nothing sent yet
      c.barrier();
      r.wait();
      EXPECT_EQ(v, 1);
      EXPECT_TRUE(r.test());
    }
  });
}

TEST(Comm, SizeMismatchThrows) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& c) {
    if (c.rank() == 0) {
      const std::int32_t v = 1;
      c.send(1, 0, &v, sizeof(v));
    } else {
      std::int64_t v;
      c.recv(0, 0, &v, sizeof(v));
    }
  }),
               Error);
}

TEST(Comm, BarrierSynchronizesPhases) {
  const int ranks = 4;
  World world(ranks);
  std::atomic<int> phase1{0};
  world.run([&](Comm& c) {
    phase1.fetch_add(1);
    c.barrier();
    // After the barrier every rank must observe all increments.
    EXPECT_EQ(phase1.load(), ranks);
    c.barrier();
  });
}

TEST(Comm, AllreduceSumMinMax) {
  World world(4);
  world.run([](Comm& c) {
    const double v = c.rank() + 1;  // 1..4
    EXPECT_EQ(c.allreduce(v, Comm::Op::Sum), 10.0);
    EXPECT_EQ(c.allreduce(v, Comm::Op::Min), 1.0);
    EXPECT_EQ(c.allreduce(v, Comm::Op::Max), 4.0);
  });
}

TEST(Comm, BackToBackAllreducesDoNotInterfere) {
  World world(3);
  world.run([](Comm& c) {
    for (int round = 0; round < 50; ++round) {
      const double expect = 3.0 * round;
      EXPECT_EQ(c.allreduce(round, Comm::Op::Sum), expect);
    }
  });
}

TEST(Comm, GatherCollectsRankOrder) {
  World world(4);
  world.run([](Comm& c) {
    const std::int32_t mine = 100 + c.rank();
    std::vector<std::int32_t> all(4, -1);
    c.gather(0, &mine, sizeof(mine), c.rank() == 0 ? all.data() : nullptr);
    if (c.rank() == 0) {
      for (int r = 0; r < 4; ++r) EXPECT_EQ(all[r], 100 + r);
    }
  });
}

TEST(Comm, BroadcastDistributesFromRoot) {
  World world(4);
  world.run([](Comm& c) {
    double v = c.rank() == 2 ? 3.14 : 0.0;
    c.broadcast(2, &v, sizeof(v));
    EXPECT_EQ(v, 3.14);
  });
}

TEST(Comm, StatsCountTraffic) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      const double v = 1;
      c.send(1, 0, &v, sizeof(v));
      c.send(1, 0, &v, sizeof(v));
    } else {
      double v;
      c.recv(0, 0, &v, sizeof(v));
      c.recv(0, 0, &v, sizeof(v));
      EXPECT_EQ(c.stats().messagesReceived, 2u);
      EXPECT_EQ(c.stats().bytesReceived, 2 * sizeof(double));
    }
  });
  EXPECT_EQ(world.totalStats().messagesSent, 2u);
  EXPECT_EQ(world.totalStats().bytesSent, 2 * sizeof(double));
}

TEST(Comm, ExceptionsPropagateToRunCaller) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& c) {
    if (c.rank() == 1) throw Error("rank failure");
    // rank 0 returns normally
  }),
               Error);
}

TEST(Comm, LatencyModelDelaysDelivery) {
  WorldConfig cfg;
  cfg.latency = 0.02;  // 20 ms per message
  World world(2, cfg);
  world.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.sendValue(1, 0, 1);
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      (void)c.recvValue<int>(0, 0);
      const double sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      EXPECT_GE(sec, 0.015);
    }
  });
}

TEST(World, RejectsNonPositiveSize) {
  EXPECT_THROW(World(0), Error);
  EXPECT_THROW(World(-3), Error);
}

// ------------------------------------------------- fault injection & timeouts

TEST(CommFaults, DroppedMessageRaisesTimeoutInsteadOfDeadlock) {
  WorldConfig cfg;
  FaultPlan::MessageFault drop;
  drop.action = FaultPlan::Action::Drop;
  drop.src = 0;
  drop.dst = 1;
  drop.tag = 5;
  cfg.faults.messageFaults.push_back(drop);
  World world(2, cfg);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.sendValue(1, 5, 42);  // dropped in transit
    } else {
      int v = 0;
      const auto t0 = std::chrono::steady_clock::now();
      EXPECT_THROW(c.recv(0, 5, &v, sizeof(v), /*timeoutSec=*/0.05),
                   TimeoutError);
      const double sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      EXPECT_GE(sec, 0.04);  // waited out the deadline...
      EXPECT_LT(sec, 2.0);   // ...but did not hang
    }
  });
  EXPECT_EQ(world.faultStats().dropped, 1u);
}

TEST(CommFaults, DefaultRecvTimeoutAppliesToWaitAndRecv) {
  WorldConfig cfg;
  FaultPlan::MessageFault drop;
  drop.action = FaultPlan::Action::Drop;
  drop.src = 0;
  drop.dst = 1;
  drop.tag = 3;
  drop.count = 2;
  cfg.faults.messageFaults.push_back(drop);
  World world(2, cfg);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.sendValue(1, 3, 1);
      c.sendValue(1, 3, 2);
    } else {
      c.setRecvTimeout(0.05);
      int v = 0;
      EXPECT_THROW(c.recv(0, 3, &v, sizeof(v)), TimeoutError);
      Request r = c.irecv(0, 3, &v, sizeof(v));
      EXPECT_THROW(r.wait(), TimeoutError);
      c.setRecvTimeout(0);
    }
  });
  EXPECT_EQ(world.faultStats().dropped, 2u);
}

TEST(CommFaults, HugeRecvTimeoutNeverFiresSpuriously) {
  // A timeout of 1e18 seconds overflows steady_clock's duration range if
  // added naively; deadlineFrom must clamp it to "no deadline" instead of
  // wrapping into the past (which made every recv fail instantly).
  World world(2);
  world.run([](Comm& c) {
    c.setRecvTimeout(1e18);
    if (c.rank() == 0) {
      c.sendValue(1, 7, 42);
    } else {
      int v = 0;
      EXPECT_NO_THROW(c.recv(0, 7, &v, sizeof(v)));
      EXPECT_EQ(v, 42);
    }
    c.setRecvTimeout(0);
  });
}

TEST(CommFaults, DelayedMessageArrivesLateButCorrect) {
  WorldConfig cfg;
  FaultPlan::MessageFault delay;
  delay.action = FaultPlan::Action::Delay;
  delay.src = 0;
  delay.dst = 1;
  delay.tag = 4;
  delay.delay = 0.03;
  cfg.faults.messageFaults.push_back(delay);
  World world(2, cfg);
  world.run([](Comm& c) {
    // t0 on the receiver is taken before the barrier releases the send,
    // so the measured wait can never undershoot the injected delay even
    // when thread scheduling staggers the ranks (TSan, loaded CI).
    if (c.rank() == 0) {
      c.barrier();
      c.sendValue(1, 4, 77);
    } else {
      const auto t0 = std::chrono::steady_clock::now();
      c.barrier();
      EXPECT_EQ(c.recvValue<int>(0, 4), 77);  // late, not lost
      const double sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      EXPECT_GE(sec, 0.025);
    }
  });
  EXPECT_EQ(world.faultStats().delayed, 1u);
}

TEST(CommFaults, CorruptedMessageDetectedByChecksumPath) {
  WorldConfig cfg;
  FaultPlan::MessageFault corrupt;
  corrupt.action = FaultPlan::Action::Corrupt;
  corrupt.src = 0;
  corrupt.dst = 1;
  corrupt.tag = 6;
  corrupt.corruptByte = 3;
  cfg.faults.messageFaults.push_back(corrupt);
  World world(2, cfg);
  world.run([](Comm& c) {
    std::vector<double> buf(16, 1.25);
    if (c.rank() == 0) {
      c.sendChecksummed(1, 6, buf.data(), buf.size() * sizeof(double));
    } else {
      EXPECT_THROW(
          c.recvChecksummed(0, 6, buf.data(), buf.size() * sizeof(double)),
          CorruptionError);
    }
  });
  EXPECT_EQ(world.faultStats().corrupted, 1u);
}

TEST(CommFaults, ChecksummedRoundTripWithoutFaultsIsClean) {
  World world(2);
  world.run([](Comm& c) {
    std::vector<double> buf(32);
    if (c.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0.5);
      c.sendChecksummed(1, 8, buf.data(), buf.size() * sizeof(double));
    } else {
      c.recvChecksummed(0, 8, buf.data(), buf.size() * sizeof(double));
      for (int i = 0; i < 32; ++i) EXPECT_EQ(buf[i], i + 0.5);
    }
  });
}

TEST(CommFaults, ChecksummedOversizePayloadIsRefusedBeforeAllocating) {
  // payload + 8 hash bytes would wrap to a tiny frame; both ends refuse
  // the size with a typed error, and nothing is sent.
  World world(1);
  world.run([](Comm& c) {
    double v = 1.0;
    for (const std::size_t bytes :
         {std::numeric_limits<std::size_t>::max(),
          std::numeric_limits<std::size_t>::max() - 7,
          static_cast<std::size_t>(PTRDIFF_MAX)}) {
      EXPECT_THROW(c.sendChecksummed(0, 9, &v, bytes), Error) << bytes;
      EXPECT_THROW(c.recvChecksummed(0, 9, &v, bytes), Error) << bytes;
    }
    EXPECT_EQ(c.stats().messagesSent, 0u);
    c.sendChecksummed(0, 9, &v, sizeof(v));  // a real payload still works
    double back = 0;
    c.recvChecksummed(0, 9, &back, sizeof(back));
    EXPECT_EQ(back, 1.0);
  });
}

TEST(CommFaults, FaultTickKillsChosenRankOnce) {
  WorldConfig cfg;
  cfg.faults.killRank = 1;
  cfg.faults.killAtStep = 3;
  World world(2, cfg);
  world.run([](Comm& c) {
    int killedAt = -1;
    for (int step = 0; step < 6; ++step) {
      try {
        c.faultTick(step);
      } catch (const RankKilledError& e) {
        killedAt = step;
        EXPECT_EQ(e.rank(), 1);
        EXPECT_EQ(e.step(), 3u);
      }
    }
    if (c.rank() == 1) {
      EXPECT_EQ(killedAt, 3);
      // One-shot: a "respawned" rank replaying the same step survives.
      EXPECT_NO_THROW(c.faultTick(3));
    } else {
      EXPECT_EQ(killedAt, -1);
    }
  });
  EXPECT_EQ(world.faultStats().kills, 1u);
}

TEST(CommFaults, SeededDropsAreReproducible) {
  auto runOnce = [](std::uint64_t seed) {
    WorldConfig cfg;
    FaultPlan::MessageFault drop;
    drop.action = FaultPlan::Action::Drop;
    drop.src = 0;
    drop.dst = 1;
    drop.tag = 0;
    drop.count = std::uint64_t(-1);
    drop.probability = 0.5;
    cfg.faults.messageFaults.push_back(drop);
    cfg.faults.seed = seed;
    World world(2, cfg);
    std::vector<int> received;
    world.run([&](Comm& c) {
      const int n = 40;
      if (c.rank() == 0) {
        for (int i = 0; i < n; ++i) c.sendValue(1, 0, i);
        c.sendValue(1, 1, -1);  // sentinel on an unfaulted tag
      } else {
        (void)c.recvValue<int>(0, 1);  // all tag-0 sends already delivered
        int v;
        while (c.irecv(0, 0, &v, sizeof(v)).test()) received.push_back(v);
      }
    });
    return std::make_pair(received, world.faultStats().dropped);
  };
  const auto [recvA, droppedA] = runOnce(12345);
  const auto [recvB, droppedB] = runOnce(12345);
  EXPECT_EQ(recvA, recvB);  // same seed => identical survivor set
  EXPECT_EQ(droppedA, droppedB);
  EXPECT_GT(droppedA, 0u);
  EXPECT_LT(droppedA, 40u);
  const auto [recvC, droppedC] = runOnce(999);
  EXPECT_TRUE(recvC != recvA || droppedC != droppedA);  // seed matters
}

TEST(CommFaults, LivenessVoteCountsHealthyRanks) {
  World world(4);
  world.run([](Comm& c) {
    EXPECT_EQ(c.livenessVote(true), 4);
    EXPECT_EQ(c.livenessVote(c.rank() != 2), 3);
  });
}

TEST(CommFaults, DrainMailboxDiscardsStaleMessages) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.sendValue(1, 0, 1);
      c.sendValue(1, 0, 2);
      c.barrier();
    } else {
      c.barrier();  // both messages are in the mailbox now
      EXPECT_EQ(c.drainMailbox(), 2u);
      int v = 0;
      EXPECT_THROW(c.recv(0, 0, &v, sizeof(v), 0.02), TimeoutError);
    }
  });
}

// Collectives ride on tagged point-to-point traffic, so fault rules can
// target them by their sequence tag: the first collective on a fresh Comm
// uses colltag::encode(0).

TEST(CommFaults, BroadcastDropSurfacesAsTimeout) {
  WorldConfig cfg;
  FaultPlan::MessageFault drop;
  drop.action = FaultPlan::Action::Drop;
  drop.src = 0;
  drop.dst = 1;
  drop.tag = colltag::encode(0);
  cfg.faults.messageFaults.push_back(drop);
  World world(2, cfg);
  world.run([](Comm& c) {
    double v = c.rank() == 0 ? 2.5 : 0.0;
    if (c.rank() == 0) {
      c.broadcast(0, &v, sizeof(v));  // root's send is dropped in transit
    } else {
      c.setRecvTimeout(0.05);
      EXPECT_THROW(c.broadcast(0, &v, sizeof(v)), TimeoutError);
      c.setRecvTimeout(0);
    }
  });
  EXPECT_EQ(world.faultStats().dropped, 1u);
}

TEST(CommFaults, GatherDropAtRootTimesOut) {
  WorldConfig cfg;
  FaultPlan::MessageFault drop;
  drop.action = FaultPlan::Action::Drop;
  drop.src = 1;
  drop.dst = 0;
  drop.tag = colltag::encode(0);
  cfg.faults.messageFaults.push_back(drop);
  World world(3, cfg);
  world.run([](Comm& c) {
    const std::int32_t mine = 100 + c.rank();
    std::vector<std::int32_t> all(3, -1);
    if (c.rank() == 0) {
      c.setRecvTimeout(0.05);
      EXPECT_THROW(c.gather(0, &mine, sizeof(mine), all.data()),
                   TimeoutError);
      c.setRecvTimeout(0);
    } else {
      c.gather(0, &mine, sizeof(mine), nullptr);  // eager send, no blocking
    }
  });
  EXPECT_EQ(world.faultStats().dropped, 1u);
}

TEST(CommFaults, BroadcastDelayArrivesLateButCorrect) {
  WorldConfig cfg;
  FaultPlan::MessageFault delay;
  delay.action = FaultPlan::Action::Delay;
  delay.src = 0;
  delay.dst = 1;
  // The release barrier below consumes collective sequence 0; the
  // broadcast under test is sequence 1.
  delay.tag = colltag::encode(1);
  delay.delay = 0.03;
  cfg.faults.messageFaults.push_back(delay);
  World world(4, cfg);
  world.run([](Comm& c) {
    double v = c.rank() == 0 ? 6.25 : 0.0;
    // As above: take t0 before the barrier that releases the broadcast so
    // rank scheduling stagger cannot shrink the measured delay.
    const auto t0 = std::chrono::steady_clock::now();
    c.barrier();
    c.broadcast(0, &v, sizeof(v));
    EXPECT_EQ(v, 6.25);  // late on rank 1, never lost
    if (c.rank() == 1) {
      const double sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      EXPECT_GE(sec, 0.025);
    }
  });
  EXPECT_EQ(world.faultStats().delayed, 1u);
}

TEST(CommFaults, GatherCorruptionDetectedWithChecksummedCollectives) {
  WorldConfig cfg;
  FaultPlan::MessageFault corrupt;
  corrupt.action = FaultPlan::Action::Corrupt;
  corrupt.src = 1;
  corrupt.dst = 0;
  corrupt.tag = colltag::encode(0);
  corrupt.corruptByte = 2;
  cfg.faults.messageFaults.push_back(corrupt);
  World world(2, cfg);
  world.run([](Comm& c) {
    coll::CollConfig ccfg;
    ccfg.checksummed = true;
    coll::Collectives cs(c, ccfg);
    const std::vector<double> mine(8, 1.0 + c.rank());
    std::vector<double> all(c.rank() == 0 ? 16 : 0);
    if (c.rank() == 0) {
      EXPECT_THROW(cs.gather<double>(0, mine, all), CorruptionError);
    } else {
      cs.gather<double>(0, mine, all);
    }
  });
  EXPECT_EQ(world.faultStats().corrupted, 1u);
}

TEST(CommHealth, ProbeAllAliveDeclaresNobodyDead) {
  World world(3);
  world.run([](Comm& c) {
    HealthConfig hc;
    hc.timeout = 0.5;
    const std::vector<std::uint8_t> alive = c.probeLiveness(hc);
    ASSERT_EQ(alive.size(), 3u);
    for (int r = 0; r < 3; ++r) EXPECT_EQ(alive[static_cast<std::size_t>(r)], 1);
    EXPECT_GE(c.healthStats().probes, 1u);
    EXPECT_EQ(c.healthStats().declaredDead, 0u);
  });
}

TEST(CommHealth, ProbeFindsSilentRankAndShrinkCompactsSurvivors) {
  World world(4);
  std::array<int, 4> newRank{-1, -1, -1, -1};
  world.run([&](Comm& c) {
    if (c.rank() == 1) return;  // silent peer: never answers the probe
    HealthConfig hc;
    hc.timeout = 0.1;
    hc.retries = 2;
    const std::vector<std::uint8_t> alive = c.probeLiveness(hc);
    ASSERT_EQ(alive.size(), 4u);
    EXPECT_EQ(alive[0], 1);
    EXPECT_EQ(alive[1], 0);
    EXPECT_EQ(alive[2], 1);
    EXPECT_EQ(alive[3], 1);
    EXPECT_GE(c.healthStats().suspected, 1u);
    EXPECT_GE(c.healthStats().declaredDead, 1u);

    const int wr = c.worldRank();
    const int nr = c.shrink(alive);
    newRank[static_cast<std::size_t>(wr)] = nr;
    EXPECT_EQ(c.size(), 3);
    EXPECT_EQ(c.rank(), nr);
    EXPECT_EQ(c.worldRank(), wr);  // world identity survives reranking

    // The compacted communicator works end to end: collectives and
    // point-to-point traffic on the new dense numbering.
    EXPECT_EQ(c.allreduce(1.0, Comm::Op::Sum), 3.0);
    if (nr == 0) c.sendValue(2, 5, wr);
    if (nr == 2) {
      EXPECT_EQ(c.recvValue<int>(0, 5), 0);
    }
    c.barrier();
  });
  EXPECT_EQ(newRank[0], 0);
  EXPECT_EQ(newRank[1], -1);
  EXPECT_EQ(newRank[2], 1);
  EXPECT_EQ(newRank[3], 2);
}

TEST(CommHealth, ShrinkOnFullyAliveWorldIsIdentity) {
  World world(2);
  world.run([](Comm& c) {
    const std::vector<std::uint8_t> alive(2, 1);
    EXPECT_EQ(c.shrink(alive), c.rank());
    EXPECT_EQ(c.size(), 2);
    EXPECT_EQ(c.allreduce(1.0, Comm::Op::Sum), 2.0);
  });
}

TEST(CommFaults, FaultRollIsDeterministic) {
  const double a = fault_roll(7, 0, 1, 3, 10);
  const double b = fault_roll(7, 0, 1, 3, 10);
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 0.0);
  EXPECT_LT(a, 1.0);
  EXPECT_NE(fault_roll(8, 0, 1, 3, 10), a);
}

}  // namespace
}  // namespace swlb::runtime
