/**
 * @file
 * Tests of the task-based baselines: channel privatization and commit,
 * restart idempotence after failures, transition accounting, InK
 * periodic events, and MayFly graph validation / edge expiry /
 * periodic re-dispatch.
 */

#include <gtest/gtest.h>

#include "board/board.hpp"
#include "runtimes/ink.hpp"
#include "runtimes/mayfly.hpp"
#include "runtimes/task_core.hpp"

using namespace ticsim;
using namespace ticsim::taskrt;

namespace {

std::unique_ptr<board::Board>
contBoard()
{
    return std::make_unique<board::Board>(
        board::BoardConfig{}, std::make_unique<energy::ContinuousSupply>(),
        std::make_unique<timekeeper::PerfectTimekeeper>());
}

std::unique_ptr<board::Board>
patternBoard(TimeNs period, double duty)
{
    return std::make_unique<board::Board>(
        board::BoardConfig{},
        std::make_unique<energy::PatternSupply>(period, duty),
        std::make_unique<timekeeper::PerfectTimekeeper>());
}

} // namespace

TEST(Channel, ReadsSeeOwnUncommittedWrites)
{
    auto b = contBoard();
    TaskRuntime rt;
    Channel<int> ch(rt, b->nvram(), "c");
    int observedInside = -1;
    rt.addTask("t", [&]() -> TaskId {
        ch.set(5);
        observedInside = ch.get(); // privatized read-own-write
        return kTaskDone;
    });
    b->run(rt, {}, kNsPerSec);
    EXPECT_EQ(observedInside, 5);
    EXPECT_EQ(ch.committed(), 5); // committed at the transition
}

TEST(Channel, DiscardDropsShadow)
{
    auto b = contBoard();
    TaskRuntime rt;
    Channel<int> ch(rt, b->nvram(), "c");
    // Outside any run: exercise the channel surface directly.
    EXPECT_EQ(ch.dirtyBytes(), 0u);
    rt.attach(*b, {});
    b->ctx().prepare([&] {
        ch.set(9);
        EXPECT_GT(ch.dirtyBytes(), 0u);
        ch.discard();
        EXPECT_EQ(ch.dirtyBytes(), 0u);
        EXPECT_EQ(ch.get(), 0);
    });
    const mem::ScopedPort port({.hooks = rt.memHooks()});
    b->ctx().run();
    EXPECT_EQ(ch.committed(), 0);
}

TEST(Channel, DirtyBytesAreFineGrained)
{
    auto b = contBoard();
    TaskRuntime rt;
    using Arr = std::array<std::uint8_t, 64>;
    Channel<Arr> ch(rt, b->nvram(), "arr");
    rt.addTask("t", [&]() -> TaskId {
        Arr a{}; // all zeros == committed contents
        a[3] = 7;
        a[40] = 9;
        ch.set(a);
        EXPECT_EQ(ch.dirtyBytes(), 2u); // only the changed bytes
        return kTaskDone;
    });
    b->run(rt, {}, kNsPerSec);
}

TEST(TaskRuntime, InterruptedTaskRestartsIdempotently)
{
    auto b = patternBoard(10 * kNsPerMs, 0.5);
    TaskRuntime rt;
    Channel<int> counter(rt, b->nvram(), "n");
    Channel<int> i(rt, b->nvram(), "i");
    const auto tLoop = rt.addTask("loop", [&]() -> TaskId {
        // Non-idempotent-looking read-modify-write: privatization
        // makes the restart safe.
        counter.set(counter.get() + 1);
        b->charge(1200); // long enough that some instances get cut
        i.set(i.get() + 1);
        return i.get() + 1 > 20 ? kTaskDone : 0;
    });
    (void)tLoop;
    rt.setInitial(0);
    const auto res = b->run(rt, {}, 10 * kNsPerSec);
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.reboots, 0u);
    // Every committed increment happened exactly once.
    EXPECT_EQ(counter.committed(), i.committed());
}

TEST(TaskRuntime, TransitionsAreCounted)
{
    auto b = contBoard();
    TaskRuntime rt;
    const auto t1 = rt.addTask("a", [&]() -> TaskId { return 1; });
    const auto t2 = rt.addTask("b", [&]() -> TaskId { return kTaskDone; });
    (void)t1;
    (void)t2;
    rt.setInitial(0);
    const auto res = b->run(rt, {}, kNsPerSec);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(rt.transitions(), 2u);
}

TEST(InkRuntime, PeriodicEventReactivatesGraph)
{
    auto b = contBoard();
    InkRuntime rt;
    Channel<int> fires(rt, b->nvram(), "fires");
    rt.addTask("tick", [&]() -> TaskId {
        fires.set(fires.get() + 1);
        b->charge(100);
        if (fires.get() >= 5) {
            // Stop the experiment by burning the budget down.
            b->ctx().exitWith(context::ExitReason::TimeLimit);
        }
        return kTaskDone;
    });
    rt.setInitial(0);
    rt.addPeriodicEvent(5 * kNsPerMs, /*priority=*/1, /*root=*/0);
    b->run(rt, {}, kNsPerSec);
    EXPECT_EQ(fires.committed() + (fires.dirtyBytes() ? 1 : 0), 5);
}

TEST(InkRuntime, HigherPriorityEventWins)
{
    auto b = contBoard();
    InkRuntime rt;
    Channel<int> winner(rt, b->nvram(), "winner");
    rt.addTask("low", [&]() -> TaskId {
        winner.set(1);
        b->ctx().exitWith(context::ExitReason::TimeLimit);
        return kTaskDone;
    });
    rt.addTask("high", [&]() -> TaskId {
        winner.set(2);
        b->ctx().exitWith(context::ExitReason::TimeLimit);
        return kTaskDone;
    });
    rt.addTask("seed", [&]() -> TaskId {
        b->charge(20000); // both events become due (equal nextDue)
        return kTaskDone;
    });
    rt.setInitial(2);
    rt.addPeriodicEvent(5 * kNsPerMs, 1, 0);
    rt.addPeriodicEvent(5 * kNsPerMs, 9, 1);
    b->run(rt, {}, kNsPerSec);
    // The shadow write of the winning task may be uncommitted (it
    // exited mid-task), so peek at the privatized value.
    EXPECT_EQ(winner.get(), 2);
}

TEST(Mayfly, AcyclicValidationAcceptsChains)
{
    auto b = contBoard();
    MayflyRuntime rt;
    const auto a = rt.addTask("a", [] { return kTaskDone; });
    const auto c = rt.addTask("b", [] { return kTaskDone; });
    rt.declareEdge(a, c);
    EXPECT_TRUE(rt.validateAcyclic());
}

TEST(Mayfly, AcyclicValidationRejectsLoops)
{
    auto b = contBoard();
    MayflyRuntime rt;
    const auto a = rt.addTask("a", [] { return 1; });
    const auto c = rt.addTask("b", [] { return 0; });
    rt.declareEdge(a, c);
    rt.declareEdge(c, a); // the cuckoo filter's shape
    EXPECT_FALSE(rt.validateAcyclic());
}

TEST(Mayfly, ExpiredInputReroutesDispatch)
{
    auto b = contBoard();
    MayflyRuntime rt;
    Channel<int> data(rt, b->nvram(), "data");
    Channel<int> reSampled(rt, b->nvram(), "resampled");
    Channel<int> consumed(rt, b->nvram(), "consumed");

    TaskId tSample = 0, tDelay = 0, tUse = 0;
    tSample = rt.addTask("sample", [&]() -> TaskId {
        data.set(7);
        reSampled.set(reSampled.get() + 1);
        return tDelay;
    });
    tDelay = rt.addTask("delay", [&]() -> TaskId {
        // The first pass dawdles long enough for the token to age out
        // between its commit and the consumer's dispatch; retries are
        // quick.
        b->charge(reSampled.committed() <= 1 ? 50000 : 1000);
        return tUse;
    });
    tUse = rt.addTask("use", [&]() -> TaskId {
        consumed.set(consumed.get() + 1);
        return kTaskDone;
    });
    rt.setInitial(tSample);
    rt.declareEdge(tSample, tDelay);
    rt.declareEdge(tDelay, tUse);
    rt.constrainInput(tUse, &data, 20 * kNsPerMs, tSample);
    ASSERT_TRUE(rt.validateAcyclic());
    const auto res = b->run(rt, {}, kNsPerSec);
    EXPECT_TRUE(res.completed);
    EXPECT_GT(rt.expiredDispatches(), 0u);
    EXPECT_EQ(consumed.committed(), 1);
    EXPECT_GT(reSampled.committed(), 1);
}

TEST(Mayfly, RestartUntilIteratesWithoutGraphLoops)
{
    auto b = contBoard();
    MayflyRuntime rt;
    Channel<int> n(rt, b->nvram(), "n");
    const auto tStep = rt.addTask("step", [&]() -> TaskId {
        n.set(n.get() + 1);
        return kTaskDone;
    });
    rt.setInitial(tStep);
    rt.restartUntil(tStep, [&] { return n.committed() >= 7; });
    ASSERT_TRUE(rt.validateAcyclic());
    const auto res = b->run(rt, {}, kNsPerSec);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(n.committed(), 7);
}
