/**
 * @file
 * Tests for the coterie-lint rule engine (tools/lint).
 *
 * Fixture snippets live in raw string literals; the engine strips
 * string literals before matching, so scanning this file with
 * coterie-lint itself stays clean — the fixtures are inert by
 * construction. One passing and one violating case per rule, plus
 * suppression-comment handling and the comment/string stripper.
 */

#include <gtest/gtest.h>

#include "lint.hh"

namespace {

using coterie::lint::checkSource;
using coterie::lint::Finding;
using coterie::lint::stripCommentsAndStrings;

std::vector<Finding>
run(const std::string &path, const std::string &src)
{
    return checkSource(path, src);
}

bool
fired(const std::vector<Finding> &findings, const std::string &rule)
{
    for (const Finding &f : findings)
        if (f.rule == rule)
            return true;
    return false;
}

TEST(LintStrip, CommentsAndStringsAreBlanked)
{
    const std::string src = R"fx(int a; // trailing time(now)
/* block rand( */ int b;
const char *s = "getenv(inside)";
)fx";
    const std::string stripped = stripCommentsAndStrings(src);
    EXPECT_EQ(stripped.find("time("), std::string::npos);
    EXPECT_EQ(stripped.find("rand("), std::string::npos);
    EXPECT_EQ(stripped.find("getenv"), std::string::npos);
    EXPECT_NE(stripped.find("int a;"), std::string::npos);
    EXPECT_NE(stripped.find("int b;"), std::string::npos);
    // Line structure is preserved for diagnostics.
    EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
              std::count(src.begin(), src.end(), '\n'));
}

TEST(LintStrip, RawStringsAndCharLiterals)
{
    const std::string src =
        "auto r = R\"x(std::thread inside)x\";\n"
        "char c = '\\'';\n"
        "int sep = 1'000'000;\n";
    const std::string stripped = stripCommentsAndStrings(src);
    EXPECT_EQ(stripped.find("std::thread"), std::string::npos);
    // Digit separators survive (not char literals).
    EXPECT_NE(stripped.find("1'000'000"), std::string::npos);
}

TEST(LintWallclockRng, ViolationInCore)
{
    const auto findings = run("src/core/bad.cc", R"(
#include <cstdlib>
int f() { return rand(); }
double g() { return std::chrono::system_clock::now().time_since_epoch().count(); }
const char *h() { return getenv("HOME"); }
)");
    ASSERT_TRUE(fired(findings, "no-wallclock-rng"));
    // file:line diagnostics point at the offending lines.
    EXPECT_EQ(findings[0].file, "src/core/bad.cc");
    EXPECT_EQ(findings[0].line, 3);
}

TEST(LintWallclockRng, SupportAndTestsAreExempt)
{
    const std::string src = "int f() { return rand(); }\n";
    EXPECT_FALSE(fired(run("src/support/rng.cc", src),
                       "no-wallclock-rng"));
    EXPECT_FALSE(fired(run("tests/foo_test.cc", src),
                       "no-wallclock-rng"));
}

TEST(LintWallclockRng, IdentifiersContainingTimeDoNotFire)
{
    const auto findings = run("src/render/ok.cc", R"(
double renderTimeMs(double x) { return x; }
double t = renderTimeMs(3.0);
)");
    EXPECT_FALSE(fired(findings, "no-wallclock-rng"));
}

TEST(LintRawThread, ViolationAnywhere)
{
    const std::string src = "#include <thread>\n"
                            "void f() { std::thread t; t.detach(); }\n";
    EXPECT_TRUE(fired(run("src/core/bad.cc", src), "no-raw-thread"));
    EXPECT_TRUE(fired(run("tests/bad_test.cc", src), "no-raw-thread"));
    EXPECT_TRUE(fired(run("bench/bad.cc", src), "no-raw-thread"));
}

TEST(LintRawThread, PoolAndHardwareConcurrencyAllowed)
{
    EXPECT_FALSE(fired(run("src/support/parallel.cc",
                           "std::thread t;\n"),
                       "no-raw-thread"));
    EXPECT_FALSE(fired(run("bench/ok.cc",
                           "unsigned n = "
                           "std::thread::hardware_concurrency();\n"),
                       "no-raw-thread"));
}

TEST(LintUsingNamespace, HeaderViolatesSourceDoesNot)
{
    const std::string src = "#pragma once\nusing namespace std;\n";
    EXPECT_TRUE(fired(run("src/geom/bad.hh", src),
                      "no-using-namespace-header"));
    EXPECT_FALSE(fired(run("src/geom/ok.cc", "using namespace std;\n"),
                       "no-using-namespace-header"));
}

TEST(LintPragmaOnce, MissingAndPresent)
{
    const auto bad = run("src/geom/bad.hh", "struct X {};\n");
    ASSERT_TRUE(fired(bad, "pragma-once"));
    EXPECT_EQ(bad[0].line, 1);
    EXPECT_FALSE(fired(run("src/geom/ok.hh",
                           "#pragma once\nstruct X {};\n"),
                       "pragma-once"));
    // Sources never need it.
    EXPECT_FALSE(fired(run("src/geom/ok.cc", "struct X {};\n"),
                       "pragma-once"));
}

TEST(LintConsoleIo, ViolationAndLoggingExemption)
{
    const std::string src = "#include <iostream>\n"
                            "void f() { std::cout << 1; }\n";
    EXPECT_TRUE(fired(run("src/core/bad.cc", src),
                      "no-direct-console-io"));
    EXPECT_FALSE(fired(run("src/support/logging.cc", src),
                       "no-direct-console-io"));
    // printf to a FILE* (serialization) is fine; stderr is not.
    EXPECT_FALSE(fired(run("src/trace/ok.cc",
                           "void f(FILE *fp) { fprintf(fp, \"x\"); }\n"),
                       "no-direct-console-io"));
    EXPECT_TRUE(fired(run("src/trace/bad.cc",
                          "void f() { fprintf(stderr, \"x\"); }\n"),
                      "no-direct-console-io"));
    // Tests and benches may print.
    EXPECT_FALSE(fired(run("bench/ok.cc", src),
                       "no-direct-console-io"));
}

TEST(LintMutexGuardedBy, UnannotatedMemberFires)
{
    const std::string bad = "#pragma once\n"
                            "#include <mutex>\n"
                            "class C { std::mutex m_; };\n";
    const auto findings = run("src/net/bad.hh", bad);
    ASSERT_TRUE(fired(findings, "mutex-guarded-by"));
    EXPECT_EQ(findings[0].line, 3);

    const std::string good =
        "#pragma once\n"
        "#include \"support/thread_annotations.hh\"\n"
        "class C {\n"
        "    coterie::support::Mutex m_;\n"
        "    int v_ COTERIE_GUARDED_BY(m_);\n"
        "};\n";
    EXPECT_FALSE(fired(run("src/net/ok.hh", good), "mutex-guarded-by"));
    // Outside src/ the annotation discipline is not enforced.
    EXPECT_FALSE(fired(run("tests/ok_test.cc",
                           "std::mutex m_;\n"),
                       "mutex-guarded-by"));
}

TEST(LintAmbientClock, ViolationInSrc)
{
    const auto findings = run("src/core/bad.cc", R"(
#include <chrono>
auto t0 = std::chrono::steady_clock::now();
)");
    ASSERT_TRUE(fired(findings, "ambient-clock"));
    EXPECT_EQ(findings[0].file, "src/core/bad.cc");
}

TEST(LintAmbientClock, TimeCallAndBareClockNamesFire)
{
    EXPECT_TRUE(fired(run("src/render/bad.cc",
                          "long t = time(nullptr);\n"),
                      "ambient-clock"));
    EXPECT_TRUE(fired(run("src/net/bad.cc",
                          "using clock = high_resolution_clock;\n"),
                      "ambient-clock"));
}

TEST(LintAmbientClock, ObsClockAndNonSrcAreExempt)
{
    const std::string src =
        "auto t0 = std::chrono::steady_clock::now();\n";
    EXPECT_FALSE(fired(run("src/obs/clock.cc", src), "ambient-clock"));
    EXPECT_FALSE(fired(run("src/obs/clock.hh", src), "ambient-clock"));
    // Tests, benches, and tools may read wall clocks freely.
    EXPECT_FALSE(fired(run("tests/foo_test.cc", src), "ambient-clock"));
    EXPECT_FALSE(fired(run("bench/foo.cc", src), "ambient-clock"));
}

TEST(LintAmbientClock, IdentifiersContainingClockDoNotFire)
{
    const auto findings = run("src/obs/metrics.cc", R"(
double wallClockSeconds = 0.0;
void observeClockDrift(double ms);
)");
    EXPECT_FALSE(fired(findings, "ambient-clock"));
}

TEST(LintSuppression, SameLineAndLineAbove)
{
    const std::string sameLine =
        "int f() { return rand(); } // lint:allow(no-wallclock-rng)\n";
    EXPECT_TRUE(run("src/core/x.cc", sameLine).empty());

    const std::string lineAbove =
        "// lint:allow(no-wallclock-rng)\n"
        "int f() { return rand(); }\n";
    EXPECT_TRUE(run("src/core/x.cc", lineAbove).empty());

    std::size_t suppressed = 0;
    checkSource("src/core/x.cc", sameLine, &suppressed);
    EXPECT_EQ(suppressed, 1u);
}

TEST(LintSuppression, WrongRuleNameDoesNotSuppress)
{
    const std::string src =
        "int f() { return rand(); } // lint:allow(no-raw-thread)\n";
    EXPECT_TRUE(fired(run("src/core/x.cc", src), "no-wallclock-rng"));
}

TEST(LintSuppression, AllAndLists)
{
    EXPECT_TRUE(run("src/core/x.cc",
                    "int f() { return rand(); } // lint:allow(all)\n")
                    .empty());
    EXPECT_TRUE(
        run("src/core/x.cc",
            "int f() { return rand(); } "
            "// lint:allow(no-direct-console-io, no-wallclock-rng)\n")
            .empty());
}

TEST(LintEpochGuardedSchedule, UnguardedThisCaptureFires)
{
    // A scheduled callback that captures `this` and touches members
    // with no revalidation: the classic stale-event bug.
    const auto findings = run("src/net/bad.cc", R"fx(
void Channel::rearm()
{
    queue_.scheduleIn(eta_, [this] { progressAndReschedule(); });
}
)fx");
    ASSERT_TRUE(fired(findings, "epoch-guarded-schedule"));
    EXPECT_EQ(findings[0].line, 4);
}

TEST(LintEpochGuardedSchedule, EpochComparisonPasses)
{
    // The reference pattern from net/channel.cc: stamp an epoch,
    // compare it on wake.
    const auto findings = run("src/net/good.cc", R"fx(
void Channel::rearm()
{
    const std::uint64_t epoch = ++epoch_;
    queue_.scheduleIn(eta_, [this, epoch] {
        if (epoch == epoch_)
            progressAndReschedule();
    });
}
)fx");
    EXPECT_FALSE(fired(findings, "epoch-guarded-schedule"));
}

TEST(LintEpochGuardedSchedule, MembershipLookupPasses)
{
    // Generation/membership revalidation (net/resilience.cc): a
    // cancelled fetch makes the wake-up a no-op.
    const auto findings = run("src/net/good2.cc", R"fx(
void Fetcher::backoff(std::uint64_t key, std::uint64_t gen)
{
    queue_.scheduleIn(delay, [this, key, gen] {
        const auto it = pending_.find(key);
        if (it == pending_.end())
            return;
        issueAttempt(key);
    });
}
)fx");
    EXPECT_FALSE(fired(findings, "epoch-guarded-schedule"));
}

TEST(LintEpochGuardedSchedule, NonThisCapturesAreOutOfScope)
{
    // Free-function session loops capture locals by reference, not
    // `this`; their lifetime is the enclosing run, not an object.
    const auto findings = run("src/core/loop.cc", R"fx(
void run()
{
    queue.scheduleIn(1.0, [&, pid] { schedule_frame(pid); });
}
)fx");
    EXPECT_FALSE(fired(findings, "epoch-guarded-schedule"));
}

TEST(LintEpochGuardedSchedule, AllowCommentSuppresses)
{
    // The callee-revalidates pattern (channel.cc beginPending) is
    // justified with an allow on the call line.
    const auto findings = run("src/net/fwd.cc", R"fx(
void Channel::arm(TransferId id)
{
    queue_.scheduleIn(delay, // lint:allow(epoch-guarded-schedule)
                      [this, id] { beginPending(id); });
}
)fx");
    EXPECT_FALSE(fired(findings, "epoch-guarded-schedule"));
}

TEST(LintEpochGuardedSchedule, DeclarationsDoNotFire)
{
    const auto findings = run("src/sim/queue.hh", R"fx(
#pragma once
struct EventQueue
{
    void scheduleAt(TimeMs when, EventFn fn);
    void scheduleIn(TimeMs delay, EventFn fn);
};
)fx");
    EXPECT_FALSE(fired(findings, "epoch-guarded-schedule"));
}

TEST(LintUnboundedQueue, UndocumentedDequeMemberFires)
{
    // A queue-shaped member with no growth story: one slow consumer
    // away from a silent leak.
    const auto findings = run("src/net/mailbox.hh", R"fx(
#pragma once
#include <deque>
struct Mailbox
{
    std::deque<Message> inbox_;
};
)fx");
    ASSERT_TRUE(fired(findings, "unbounded-queue"));
    EXPECT_EQ(findings[0].line, 6);
}

TEST(LintUnboundedQueue, QueueNamedVectorFires)
{
    const auto findings = run("src/core/work.hh", R"fx(
#pragma once
#include <vector>
struct Scheduler
{
    std::vector<Job> pendingJobs_;
};
)fx");
    EXPECT_TRUE(fired(findings, "unbounded-queue"));
}

TEST(LintUnboundedQueue, DocumentedCapPasses)
{
    // The client pipe pattern: the cap is stated where the member
    // lives, either in the block above or on the line itself.
    const auto findings = run("src/core/pipe.hh", R"fx(
#pragma once
#include <deque>
struct ClientState
{
    /** Capped at 6 entries — request_frame drops the most
     *  speculative tail beyond that. */
    std::deque<Key> pipe;
    std::deque<Id> fifo_; ///< bounded by the admission queue limit
};
)fx");
    EXPECT_FALSE(fired(findings, "unbounded-queue"));
}

TEST(LintUnboundedQueue, PlainVectorsAreOutOfScope)
{
    // Vectors without a queue-shaped name are value storage, not
    // producer/consumer hand-off; they stay out of scope.
    const auto findings = run("src/core/data.hh", R"fx(
#pragma once
#include <vector>
struct Table
{
    std::vector<double> samples_;
};
)fx");
    EXPECT_FALSE(fired(findings, "unbounded-queue"));
}

TEST(LintUnboundedQueue, AllowCommentSuppresses)
{
    // A session-lifetime record store: growth is the feature,
    // justified with the escape hatch.
    const auto findings = run("src/obs/records.hh", R"fx(
#pragma once
#include <deque>
struct Tracer
{
    std::deque<Record> records_; // lint:allow(unbounded-queue)
};
)fx");
    EXPECT_FALSE(fired(findings, "unbounded-queue"));
}

TEST(LintUnboundedQueue, OutsideSrcIsOutOfScope)
{
    const auto findings = run("tools/thing.cc", R"fx(
#include <deque>
std::deque<int> scratch_;
)fx");
    EXPECT_FALSE(fired(findings, "unbounded-queue"));
}

TEST(LintRules, PtrKeyedContainerFlagsPointerKeys)
{
    const auto findings = run("src/core/owners.cc", R"fx(
#include <unordered_map>
struct Object;
std::unordered_map<const Object *, int> byPtr;
)fx");
    EXPECT_TRUE(fired(findings, "ptr-keyed-container"));

    // Pointer *values* are fine — only the key drives iteration order.
    const auto ok = run("src/core/owners.cc", R"fx(
#include <unordered_map>
struct Object;
std::unordered_map<unsigned long, Object *> byId;
)fx");
    EXPECT_FALSE(fired(ok, "ptr-keyed-container"));
}

TEST(LintRules, PtrKeyedContainerHandlesNestedTemplates)
{
    // The key type ends at the first top-level comma, so a pointer
    // inside the *mapped* type must not fire.
    const auto ok = run("src/core/owners.cc", R"fx(
#include <unordered_map>
#include <vector>
struct Object;
std::unordered_map<unsigned, std::vector<Object *>> lists;
)fx");
    EXPECT_FALSE(fired(ok, "ptr-keyed-container"));
}

TEST(LintRules, AddressOrderingFlagsUintptrCasts)
{
    const auto findings = run("src/world/ids.cc", R"fx(
#include <cstdint>
unsigned long long id(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p);
}
)fx");
    EXPECT_TRUE(fired(findings, "address-ordering"));

    const auto hash = run("src/world/ids.cc", R"fx(
#include <functional>
struct Object;
std::hash<Object *> hasher;
)fx");
    EXPECT_TRUE(fired(hash, "address-ordering"));
}

TEST(LintRules, AmbientRngFlagsStdEnginesOutsideSupport)
{
    const auto findings = run("src/sim/jitter.cc", R"fx(
#include <random>
std::mt19937 gen;
)fx");
    EXPECT_TRUE(fired(findings, "ambient-rng"));

    // support/ owns the seeded generators.
    const auto ok = run("src/support/rng.cc", R"fx(
#include <random>
std::mt19937 gen;
)fx");
    EXPECT_FALSE(fired(ok, "ambient-rng"));
}

TEST(LintRules, SimdAmbientMathFlagsLibmInCloneKernels)
{
    const auto findings = run("src/render/kern.cc", R"fx(
#include "support/simd.hh"
COTERIE_SIMD_CLONES void kern(double *out, const double *in)
{
    out[0] = std::sin(in[0]);
}
)fx");
    EXPECT_TRUE(fired(findings, "simd-ambient-math"));

    // sqrt is exactly rounded; outside-kernel transcendentals are
    // also fine.
    const auto ok = run("src/render/kern.cc", R"fx(
#include "support/simd.hh"
#include <cmath>
COTERIE_SIMD_CLONES void kern(double *out, const double *in)
{
    out[0] = std::sqrt(in[0]);
}
double plain(double x) { return std::sin(x); }
)fx");
    EXPECT_FALSE(fired(ok, "simd-ambient-math"));
}

TEST(LintRules, CrossLaneFlagsForeignQueueScheduling)
{
    const auto findings = run("src/core/widget.cc", R"fx(
void Widget::poke(SessionManager &mgr)
{
    mgr.queue().scheduleAt(5.0, [] {});
    const double t = mgr.queue().now();
    other_->queue().scheduleIn(1.0, [] {});
}
)fx");
    EXPECT_TRUE(fired(findings, "cross-lane"));
    int hits = 0;
    for (const Finding &f : findings)
        if (f.rule == "cross-lane")
            ++hits;
    EXPECT_EQ(hits, 3);
}

TEST(LintRules, CrossLaneOwnQueueAndMergeApiPass)
{
    // A member queue reference, the barrier API, and observe-only
    // accessors are all legal lane interaction.
    const auto ok = run("src/core/widget.cc", R"fx(
void Widget::tick()
{
    queue_.scheduleIn(1.0, [] {});
    queue_.scheduleAt(queue_.now() + 5.0, [] {});
    queue_.postControl(lane_, [] {});
    const auto backlog = mgr_.queue().pending();
    const auto done = mgr_.queue().executedEvents();
}
)fx");
    EXPECT_FALSE(fired(ok, "cross-lane"));
}

TEST(LintRules, CrossLaneScopeAndSuppression)
{
    // The engine itself (src/sim/) and code outside src/ are out of
    // scope; lint:allow(cross-lane) silences a deliberate crossing.
    EXPECT_FALSE(fired(run("src/sim/lane_queue.cc",
                           "void f(Q &q) { q.queue().now(); }"),
                       "cross-lane"));
    EXPECT_FALSE(fired(run("tests/fleet_test.cc",
                           "void f(M &m) { m.queue().now(); }"),
                       "cross-lane"));
    const auto ok = run("src/core/widget.cc", R"fx(
void Widget::poke(SessionManager &mgr)
{
    // lint:allow(cross-lane)
    mgr.queue().scheduleAt(5.0, [] {});
}
)fx");
    EXPECT_FALSE(fired(ok, "cross-lane"));
}

TEST(LintEngine, RulesAreRegisteredAndNamed)
{
    const auto &rules = coterie::lint::rules();
    ASSERT_EQ(rules.size(), 14u);
    for (const auto &rule : rules) {
        EXPECT_FALSE(rule.name.empty());
        EXPECT_FALSE(rule.description.empty());
        EXPECT_TRUE(static_cast<bool>(rule.check));
    }
}

} // namespace
