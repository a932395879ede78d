/**
 * @file
 * Tests for the shared thread pool and the determinism contract of the
 * parallel frame pipeline: chunk boundaries and results independent of
 * thread count, exception propagation, nested-parallelFor safety, and
 * serial-vs-pooled equivalence for the renderer and the partitioner.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/partitioner.hh"
#include "render/cost_model.hh"
#include "render/renderer.hh"
#include "support/parallel.hh"
#include "world/gen/generators.hh"

namespace coterie::support {
namespace {

// Force a multi-worker shared pool even on single-core CI hosts so the
// pooled code paths genuinely run threaded (the pool reads the env var
// on first use, which is after static initialization).
const bool forcedThreads = [] {
    setenv("COTERIE_THREADS", "4", /*overwrite=*/0);
    return true;
}();

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr int n = 1013;
    std::vector<std::atomic<int>> visits(n);
    pool.parallelFor(0, n, 7, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
            visits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(visits[static_cast<std::size_t>(i)].load(), 1) << i;
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount)
{
    const auto chunksOf = [](ThreadPool &pool) {
        std::mutex m;
        std::set<std::pair<std::int64_t, std::int64_t>> chunks;
        pool.parallelFor(3, 260, 16,
                         [&](std::int64_t b, std::int64_t e) {
                             std::lock_guard<std::mutex> lock(m);
                             chunks.emplace(b, e);
                         });
        return chunks;
    };
    ThreadPool serial(1), pooled(5);
    EXPECT_EQ(chunksOf(serial), chunksOf(pooled));
}

TEST(ThreadPool, OrderedReductionIsDeterministic)
{
    const auto sumOf = [](ThreadPool &pool) {
        constexpr std::int64_t n = 10000, grain = 37;
        std::vector<double> chunkSums((n + grain - 1) / grain, 0.0);
        pool.parallelFor(0, n, grain,
                         [&](std::int64_t b, std::int64_t e) {
                             double acc = 0.0;
                             for (std::int64_t i = b; i < e; ++i)
                                 acc += std::sin(static_cast<double>(i));
                             chunkSums[static_cast<std::size_t>(
                                 b / grain)] = acc;
                         });
        double total = 0.0;
        for (double s : chunkSums)
            total += s;
        return total;
    };
    ThreadPool serial(1), four(4), eight(8);
    const double reference = sumOf(serial);
    EXPECT_EQ(reference, sumOf(four));   // bit-identical, not just near
    EXPECT_EQ(reference, sumOf(eight));
}

TEST(ThreadPool, PropagatesFirstExceptionAndSurvives)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 1000, 1,
                         [&](std::int64_t b, std::int64_t) {
                             if (b == 37)
                                 throw std::runtime_error("chunk 37");
                         }),
        std::runtime_error);

    // The pool must stay fully usable after a failed job.
    std::atomic<int> ran{0};
    pool.parallelFor(0, 100, 5, [&](std::int64_t b, std::int64_t e) {
        ran.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    constexpr int outer = 16, inner = 64;
    std::vector<std::int64_t> sums(outer, 0);
    pool.parallelFor(0, outer, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t o = b; o < e; ++o) {
            // Nested call: must execute inline on this worker.
            parallelFor(0, inner, 8,
                        [&](std::int64_t ib, std::int64_t ie) {
                            for (std::int64_t i = ib; i < ie; ++i)
                                sums[static_cast<std::size_t>(o)] += i;
                        });
        }
    });
    for (int o = 0; o < outer; ++o)
        EXPECT_EQ(sums[static_cast<std::size_t>(o)],
                  inner * (inner - 1) / 2);
}

TEST(ThreadPool, ParallelMapPreservesOrder)
{
    const auto squares = parallelMap<std::int64_t>(
        257, 16, [](std::int64_t i) { return i * i; });
    ASSERT_EQ(squares.size(), 257u);
    for (std::int64_t i = 0; i < 257; ++i)
        EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
}

world::VirtualWorld
tinyWorld()
{
    world::TerrainParams terrain;
    terrain.flat = true;
    world::VirtualWorld world("tiny", {{0, 0}, {60, 60}}, terrain);
    world::WorldObject box;
    box.shape = world::Shape::Box;
    box.position = {33, 1.0, 30};
    box.dims = {2, 2, 2};
    box.color = {200, 40, 40};
    world.addObject(box);
    world::WorldObject far_box;
    far_box.shape = world::Shape::Box;
    far_box.position = {50, 2.0, 30};
    far_box.dims = {4, 4, 4};
    far_box.color = {40, 40, 200};
    world.addObject(far_box);
    world.finalize();
    return world;
}

TEST(ParallelPipeline, RenderedFramesIdenticalSerialVsPool)
{
    const world::VirtualWorld world = tinyWorld();
    const render::Renderer renderer(world);
    render::RenderOptions serial;
    serial.threads = 1;
    render::RenderOptions pooled;
    pooled.threads = 0;
    const geom::Vec3 eye = world.eyePosition({30, 30});
    EXPECT_EQ(renderer.renderPanorama(eye, 96, 48, serial),
              renderer.renderPanorama(eye, 96, 48, pooled));
    render::Camera cam;
    cam.position = eye;
    EXPECT_EQ(renderer.renderPerspective(cam, 64, 48, serial),
              renderer.renderPerspective(cam, 64, 48, pooled));
}

TEST(ParallelPipeline, PartitionLeavesIdenticalSerialVsPool)
{
    const auto world =
        world::gen::makeWorld(world::gen::GameId::Pool, 42);
    core::PartitionParams serial;
    serial.threads = 1;
    core::PartitionParams pooled;
    pooled.threads = 0;
    const auto a = core::partitionWorld(world, device::pixel2(), serial);
    const auto b = core::partitionWorld(world, device::pixel2(), pooled);
    ASSERT_EQ(a.leaves.size(), b.leaves.size());
    EXPECT_EQ(a.cutoffCalculations, b.cutoffCalculations);
    for (std::size_t i = 0; i < a.leaves.size(); ++i) {
        const core::LeafRegion &la = a.leaves[i];
        const core::LeafRegion &lb = b.leaves[i];
        EXPECT_EQ(la.id, lb.id);
        EXPECT_EQ(la.depth, lb.depth);
        EXPECT_EQ(la.rect.lo.x, lb.rect.lo.x);
        EXPECT_EQ(la.rect.hi.y, lb.rect.hi.y);
        EXPECT_EQ(la.cutoffRadius, lb.cutoffRadius); // bit-identical
        EXPECT_EQ(la.triangleDensity, lb.triangleDensity);
        EXPECT_EQ(la.reachable, lb.reachable);
    }
}

TEST(ParallelPipeline, CutoffCostCacheMatchesFreeFunctionBitExact)
{
    const auto world =
        world::gen::makeWorld(world::gen::GameId::Pool, 42);
    const geom::Vec2 eye = world.bounds().center();
    const render::CostModelParams params;
    const render::LocationCostCache cache(world, eye, 200.0, params);
    for (double r : {0.5, 1.0, 3.7, 12.0, 48.5, 120.0, 200.0}) {
        EXPECT_EQ(cache.renderTimeMs(0.0, r),
                  render::renderTimeMs(world, eye, 0.0, r, params))
            << "radius " << r;
    }
}

} // namespace
} // namespace coterie::support
