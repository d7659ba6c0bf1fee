// rt::Clock unit tests: RealClock wall-clock semantics and the
// VirtualClock's quiescence model — time stands still while any
// registered participant is runnable and jumps to the earliest blocked
// due once all are blocked. The VirtualClockTest suite also runs under
// the `tsan` CMake preset (see CMakePresets.json), auditing the clock's
// own synchronization.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "rt/clock.h"

namespace webtx::rt {
namespace {

TEST(RealClockTest, NowIsMonotoneFromZero) {
  RealClock clock;
  const double t0 = clock.Now();
  EXPECT_GE(t0, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(clock.Now(), t0);
}

TEST(RealClockTest, SleepUntilReturnsAtOrAfterDue) {
  RealClock clock;
  const double due = clock.Now() + 0.02;
  clock.SleepUntil(due, nullptr);
  EXPECT_GE(clock.Now(), due);
}

TEST(RealClockTest, SleepUntilInThePastReturnsImmediately) {
  RealClock clock;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double before = clock.Now();
  clock.SleepUntil(0.0, nullptr);
  // No fixed upper bound on a wall clock, but the past-due sleep must
  // not wait for anything.
  EXPECT_GE(clock.Now(), before);
}

TEST(RealClockTest, WaitUntilWakesByTheDeadline) {
  RealClock clock;
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);
  const double due = clock.Now() + 0.02;
  while (clock.Now() < due) clock.WaitUntil(lock, cv, due);
  EXPECT_GE(clock.Now(), due);
}

TEST(RealClockTest, DefaultCancelTokenNeverCancels) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.CancelledAt(1e18));
}

TEST(VirtualClockTest, StartsAtZeroAndAdvanceToMovesNow) {
  VirtualClock clock;
  EXPECT_EQ(clock.Now(), 0.0);
  clock.AdvanceTo(5.0);
  EXPECT_EQ(clock.Now(), 5.0);
  clock.AdvanceTo(5.0);  // no-op re-advance to the same instant
  EXPECT_EQ(clock.Now(), 5.0);
}

TEST(VirtualClockTest, SoleParticipantSleepJumpsToItsDue) {
  VirtualClock clock;
  clock.RegisterParticipant();
  clock.SleepUntil(3.0, nullptr);
  EXPECT_EQ(clock.Now(), 3.0);
  clock.SleepUntil(1.0, nullptr);  // already past: returns in place
  EXPECT_EQ(clock.Now(), 3.0);
  clock.DeregisterParticipant();
}

TEST(VirtualClockTest, SleepersWakeInTimestampOrder) {
  VirtualClock clock;
  // Main holds the timeline until both sleepers have registered: were
  // `late` to register and block while `early` had not yet started,
  // the clock would jump straight to 2.0 and `early` would wake there.
  clock.RegisterParticipant();
  std::atomic<int> registered{0};
  std::atomic<double> early_wake{-1.0};
  std::atomic<double> late_wake{-1.0};
  std::thread early([&] {
    clock.RegisterParticipant();
    registered.fetch_add(1);
    clock.SleepUntil(1.0, nullptr);
    early_wake.store(clock.Now());
    clock.DeregisterParticipant();
  });
  std::thread late([&] {
    clock.RegisterParticipant();
    registered.fetch_add(1);
    clock.SleepUntil(2.0, nullptr);
    late_wake.store(clock.Now());
    clock.DeregisterParticipant();
  });
  while (registered.load() < 2) std::this_thread::yield();
  EXPECT_EQ(clock.Now(), 0.0);
  clock.DeregisterParticipant();  // both registered: let time advance
  early.join();
  late.join();
  EXPECT_EQ(early_wake.load(), 1.0);
  EXPECT_EQ(late_wake.load(), 2.0);
  EXPECT_EQ(clock.Now(), 2.0);
}

TEST(VirtualClockTest, RunnableParticipantHoldsTheTimeline) {
  VirtualClock clock;
  clock.RegisterParticipant();
  std::atomic<double> worker_wake{-1.0};
  std::thread worker([&] {
    clock.RegisterParticipant();
    clock.SleepUntil(1.0, nullptr);
    worker_wake.store(clock.Now());
    clock.DeregisterParticipant();
  });
  // Main is registered and runnable: virtual time must not move no
  // matter how long the host takes.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(clock.Now(), 0.0);
  // Main blocks with the earlier due: the advance stops there first.
  clock.SleepUntil(0.5, nullptr);
  EXPECT_EQ(clock.Now(), 0.5);
  clock.DeregisterParticipant();  // frees the worker to advance to 1.0
  worker.join();
  EXPECT_EQ(worker_wake.load(), 1.0);
}

TEST(VirtualClockTest, ObserverSleepersDoNotGateTheAdvance) {
  VirtualClock clock;
  std::atomic<double> observer_wake{-1.0};
  std::thread observer([&] {
    // Unregistered: polls until its due passes, gates nothing.
    clock.SleepUntil(1.0, nullptr);
    observer_wake.store(clock.Now());
  });
  clock.RegisterParticipant();
  clock.SleepUntil(2.0, nullptr);  // advances despite the observer
  EXPECT_EQ(clock.Now(), 2.0);
  clock.DeregisterParticipant();
  observer.join();
  EXPECT_GE(observer_wake.load(), 1.0);
}

TEST(VirtualClockTest, WaitUntilAdvancesToOwnDueWhenAllBlocked) {
  VirtualClock clock;
  clock.RegisterParticipant();
  std::mutex mu;
  std::condition_variable cv;
  std::unique_lock<std::mutex> lock(mu);
  while (clock.Now() < 3.0) clock.WaitUntil(lock, cv, 3.0);
  EXPECT_EQ(clock.Now(), 3.0);
  clock.DeregisterParticipant();
}

TEST(VirtualClockTest, NotifiedWaiterResumesAtTheCurrentInstant) {
  // The epoch-gating regression test: a NotifyAll-woken waiter is
  // runnable at the CURRENT time even while it waits to reacquire the
  // caller's mutex. Without the per-cv wake epochs the clock would see
  // it still "blocked" and advance the notifier's sleep first,
  // timestamping the waiter's work at 10.0 by host-scheduling luck.
  VirtualClock clock;
  std::mutex mu;
  std::condition_variable cv;
  bool flag = false;
  std::atomic<double> waiter_wake{-1.0};

  clock.RegisterParticipant();
  std::thread waiter([&] {
    clock.RegisterParticipant();
    {
      std::unique_lock<std::mutex> lock(mu);
      while (!flag) clock.WaitUntil(lock, cv, kNeverSeconds);
      waiter_wake.store(clock.Now());
    }
    clock.DeregisterParticipant();
  });
  // Let the waiter park (wall time only; main is runnable, so the
  // virtual clock cannot move).
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    std::lock_guard<std::mutex> lock(mu);
    flag = true;
  }
  clock.NotifyAll(cv);
  clock.SleepUntil(10.0, nullptr);
  EXPECT_EQ(clock.Now(), 10.0);
  clock.DeregisterParticipant();
  waiter.join();
  EXPECT_EQ(waiter_wake.load(), 0.0);
}

TEST(VirtualClockTest, InterruptSleepersIsTransparentWithoutTokens) {
  // Token-less sleepers re-examine nothing and go back to sleep; the
  // interrupt must neither wake them early nor wedge the timeline.
  VirtualClock clock;
  std::atomic<double> sleeper_wake{-1.0};
  std::thread sleeper([&] {
    clock.RegisterParticipant();
    clock.SleepUntil(5.0, nullptr);
    sleeper_wake.store(clock.Now());
    clock.DeregisterParticipant();
  });
  clock.RegisterParticipant();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  clock.InterruptSleepers();
  clock.SleepUntil(5.0, nullptr);
  clock.DeregisterParticipant();
  sleeper.join();
  EXPECT_EQ(sleeper_wake.load(), 5.0);
  EXPECT_EQ(clock.Now(), 5.0);
}

TEST(VirtualClockTest, AdvanceToInterleavedWithSleepsStaysMonotone) {
  // Manual AdvanceTo calls interleave with participant sleeps on one
  // monotone timeline: same-instant re-advances are no-ops and a rewind
  // is an invariant violation (CHECK), never a silent time warp.
  VirtualClock clock;
  clock.RegisterParticipant();
  clock.AdvanceTo(2.0);
  EXPECT_EQ(clock.Now(), 2.0);
  clock.SleepUntil(4.0, nullptr);
  EXPECT_EQ(clock.Now(), 4.0);
  clock.AdvanceTo(4.0);  // same-instant re-advance: no-op
  EXPECT_EQ(clock.Now(), 4.0);
  clock.SleepUntil(4.0, nullptr);  // sleep to "now": returns in place
  EXPECT_EQ(clock.Now(), 4.0);
  clock.AdvanceTo(5.0);
  EXPECT_EQ(clock.Now(), 5.0);
  EXPECT_DEATH(clock.AdvanceTo(3.0), "CHECK failed");  // stale rewind
  clock.DeregisterParticipant();
}

TEST(VirtualClockTest, ZeroDurationSleepDoesNotAdvanceTheTimeline) {
  // A sleep due exactly at Now() (the twin driver's arrival-at-tick
  // boundary case) completes without moving time — for a registered
  // participant and for an unregistered observer alike.
  VirtualClock clock;
  clock.RegisterParticipant();
  clock.SleepUntil(1.5, nullptr);
  EXPECT_EQ(clock.Now(), 1.5);
  clock.SleepUntil(1.5, nullptr);
  EXPECT_EQ(clock.Now(), 1.5);
  clock.DeregisterParticipant();
  clock.SleepUntil(1.5, nullptr);  // unregistered, due == now
  EXPECT_EQ(clock.Now(), 1.5);
}

TEST(VirtualClockTest, TiedSleepersAllWakeAtTheSharedInstant) {
  // Several participants blocked on the SAME due: one advance serves
  // them all, every waker observes exactly the tied instant, and the
  // clock does not overshoot it.
  constexpr int kSleepers = 4;
  VirtualClock clock;
  std::atomic<int> woke_at_tie{0};
  std::vector<std::thread> threads;
  threads.reserve(kSleepers);
  for (int t = 0; t < kSleepers; ++t) {
    threads.emplace_back([&] {
      clock.RegisterParticipant();
      clock.SleepUntil(2.5, nullptr);
      if (clock.Now() == 2.5) woke_at_tie.fetch_add(1);
      clock.DeregisterParticipant();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(woke_at_tie.load(), kSleepers);
  EXPECT_EQ(clock.Now(), 2.5);
}

TEST(VirtualClockTest, TieBetweenSleepAndLaterDueRespectsOrder) {
  // A tie at t=1 between two sleepers must not leapfrog a third blocked
  // strictly later: the earliest due always wins the advance. The main
  // thread holds the clock as a registered-but-awake participant until
  // all three sleepers are registered — otherwise the late sleeper
  // could briefly be the only participant and legally advance to 7.
  VirtualClock clock;
  std::atomic<int> registered{0};
  std::atomic<double> late_wake{-1.0};
  std::atomic<int> early_wakes_at_one{0};
  clock.RegisterParticipant();
  std::thread late([&] {
    clock.RegisterParticipant();
    registered.fetch_add(1);
    clock.SleepUntil(7.0, nullptr);
    late_wake.store(clock.Now());
    clock.DeregisterParticipant();
  });
  std::vector<std::thread> tied;
  for (int t = 0; t < 2; ++t) {
    tied.emplace_back([&] {
      clock.RegisterParticipant();
      registered.fetch_add(1);
      clock.SleepUntil(1.0, nullptr);
      if (clock.Now() == 1.0) early_wakes_at_one.fetch_add(1);
      clock.DeregisterParticipant();
    });
  }
  while (registered.load() < 3) std::this_thread::yield();
  clock.DeregisterParticipant();  // release the timeline
  for (std::thread& t : tied) t.join();
  EXPECT_EQ(early_wakes_at_one.load(), 2);
  late.join();
  EXPECT_EQ(late_wake.load(), 7.0);
}

TEST(VirtualClockTest, ManyParticipantsConvergeOnTheSameTimeline) {
  // Stress shape for tsan: N participants ping-pong through staggered
  // sleeps; every thread must observe exactly its own due instants.
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  VirtualClock clock;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      clock.RegisterParticipant();
      for (int round = 0; round < kRounds; ++round) {
        const double due =
            static_cast<double>(round) + 0.01 * static_cast<double>(t + 1);
        clock.SleepUntil(due, nullptr);
        if (clock.Now() < due) failures.fetch_add(1);
      }
      clock.DeregisterParticipant();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(clock.Now(),
            static_cast<double>(kRounds - 1) + 0.01 * kThreads);
}

}  // namespace
}  // namespace webtx::rt
