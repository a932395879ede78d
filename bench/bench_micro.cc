/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot paths: SSIM, the
 * block codec, panorama rendering, BVH ray casts, terrain heights,
 * frame-cache lookup, near-set signatures, render-cost queries, and
 * quadtree partitioning.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "core/frame_cache.hh"
#include "core/partitioner.hh"
#include "core/prefetcher.hh"
#include "image/codec.hh"
#include "image/ssim.hh"
#include "render/cost_model.hh"
#include "render/renderer.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "world/bvh.hh"
#include "world/gen/generators.hh"
#include "world/terrain.hh"

namespace {

using namespace coterie;

const world::VirtualWorld &
vikingWorld()
{
    static const world::VirtualWorld world =
        world::gen::makeWorld(world::gen::GameId::Viking, 42);
    return world;
}

image::Image
noiseImage(int w, int h, std::uint64_t seed)
{
    image::Image img(w, h);
    Rng rng(seed);
    for (auto &p : img.pixels())
        p = {static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
             static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
             static_cast<std::uint8_t>(rng.uniformInt(0, 255))};
    return img;
}

void
BM_Ssim(benchmark::State &state)
{
    const int side = static_cast<int>(state.range(0));
    const auto a = noiseImage(side, side, 1);
    const auto b = noiseImage(side, side, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(image::ssim(a, b));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ssim)->Arg(128)->Arg(256);

/** New fast kernel (tiled at the default 8x8/stride-4 geometry) on the
 *  acceptance geometry (512x256). */
void
BM_SsimKernelFast(benchmark::State &state)
{
    const auto la = noiseImage(512, 256, 1).lumaPlane();
    const auto lb = noiseImage(512, 256, 2).lumaPlane();
    for (auto _ : state)
        benchmark::DoNotOptimize(image::ssimLuma(la, lb, 512, 256));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SsimKernelFast)->Unit(benchmark::kMillisecond);

/** Old naive O(win^2)-per-window formulation, same geometry. */
void
BM_SsimKernelNaive(benchmark::State &state)
{
    const auto la = noiseImage(512, 256, 1).lumaPlane();
    const auto lb = noiseImage(512, 256, 2).lumaPlane();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            image::ssimLumaReference(la, lb, 512, 256));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SsimKernelNaive)->Unit(benchmark::kMillisecond);

/** Dispatch + join overhead of one pooled parallelFor (trivial body). */
void
BM_PoolDispatch(benchmark::State &state)
{
    support::ThreadPool::instance(); // warm the pool outside the loop
    for (auto _ : state) {
        support::parallelFor(0, 1024, 16,
                             [](std::int64_t b, std::int64_t) {
                                 benchmark::DoNotOptimize(b);
                             });
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolDispatch);

void
BM_CodecEncode(benchmark::State &state)
{
    const auto img = noiseImage(static_cast<int>(state.range(0)),
                                static_cast<int>(state.range(1)), 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(image::encode(img));
    state.SetBytesProcessed(state.iterations() * img.pixelCount() * 3);
}
// Block rows are coded on the shared pool, so time the wall clock; the
// 512x256 case is the prerender panorama's shape.
BENCHMARK(BM_CodecEncode)
    ->Args({128, 128})
    ->Args({256, 256})
    ->Args({512, 256})
    ->UseRealTime();

void
BM_CodecDecode(benchmark::State &state)
{
    const int side = static_cast<int>(state.range(0));
    const auto encoded = image::encode(noiseImage(side, side, 3));
    for (auto _ : state)
        benchmark::DoNotOptimize(image::decode(encoded));
}
BENCHMARK(BM_CodecDecode)->Arg(128)->Arg(256);

void
BM_RenderPanorama(benchmark::State &state)
{
    const auto &world = vikingWorld();
    const render::Renderer renderer(world);
    const geom::Vec3 eye = world.eyePosition(world.bounds().center());
    const int w = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            renderer.renderPanorama(eye, w, w / 2, {}));
    }
}
BENCHMARK(BM_RenderPanorama)->Arg(128)->Arg(256)->Unit(
    benchmark::kMillisecond);

void
BM_BvhClosestHit(benchmark::State &state)
{
    const auto &world = vikingWorld();
    Rng rng(7);
    geom::Ray ray;
    ray.origin = world.eyePosition(world.bounds().center());
    for (auto _ : state) {
        ray.dir = geom::Vec3{rng.normal(), rng.normal() * 0.2,
                             rng.normal()}
                      .normalized();
        benchmark::DoNotOptimize(world.bvh().closestHit(ray));
    }
}
BENCHMARK(BM_BvhClosestHit);

/**
 * One `Terrain::heightAt` call on Racing's terrain, over 4096 fixed
 * points: inside the min/max grid (in_grid:1, where the lattice tables
 * supply every corner) or one grid width past it (in_grid:0, where
 * every corner is hashed).
 */
void
BM_TerrainHeightAt(benchmark::State &state)
{
    static const world::VirtualWorld world =
        world::gen::makeWorld(world::gen::GameId::Racing, 42);
    const world::Terrain &terrain = world.terrain();
    const world::Terrain::GridShape &g = terrain.gridShape();
    const double w = g.cols * g.cell;
    const double h = g.rows * g.cell;
    const double x0 = g.origin.x + (state.range(0) ? 0.0 : 2.0 * w);
    Rng rng(7);
    std::vector<geom::Vec2> points(4096);
    for (geom::Vec2 &p : points)
        p = {x0 + rng.uniform(0.0, w), g.origin.y + rng.uniform(0.0, h)};
    for (auto _ : state)
        for (const geom::Vec2 &p : points)
            benchmark::DoNotOptimize(terrain.heightAt(p));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_TerrainHeightAt)->ArgName("in_grid")->Arg(1)->Arg(0);

void
BM_NearSetSignature(benchmark::State &state)
{
    const auto &world = vikingWorld();
    const geom::Vec2 center = world.bounds().center();
    for (auto _ : state)
        benchmark::DoNotOptimize(world.nearSetSignature(center, 10.0));
}
BENCHMARK(BM_NearSetSignature);

void
BM_RenderCostQuery(benchmark::State &state)
{
    const auto &world = vikingWorld();
    const geom::Vec2 eye = world.bounds().center();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            render::renderTimeMs(world, eye, 0.0, 20.0, {}));
    }
}
BENCHMARK(BM_RenderCostQuery);

void
BM_CacheLookup(benchmark::State &state)
{
    core::FrameCacheParams params;
    params.bucketEdge = 1.0;
    core::FrameCache cache(params);
    Rng rng(5);
    for (int i = 0; i < 4000; ++i) {
        core::FrameCache::Key key;
        key.gridKey = static_cast<std::uint64_t>(i);
        key.position = {rng.uniform(0.0, 180.0), rng.uniform(0.0, 120.0)};
        key.leafRegionId = static_cast<std::uint32_t>(i % 40);
        key.nearSetSignature = 0x5eed;
        cache.insert(key, 200000);
    }
    core::FrameCache::Key probe;
    probe.nearSetSignature = 0x5eed;
    for (auto _ : state) {
        probe.gridKey = UINT64_MAX;
        probe.position = {rng.uniform(0.0, 180.0),
                          rng.uniform(0.0, 120.0)};
        probe.leafRegionId = static_cast<std::uint32_t>(
            rng.uniformInt(0, 39));
        benchmark::DoNotOptimize(cache.lookup(probe, 0.5));
    }
}
BENCHMARK(BM_CacheLookup);

/** Quadtree partition wall time; arg 1 = serial, 0 = shared pool. */
void
BM_PartitionWorld(benchmark::State &state)
{
    const auto world =
        world::gen::makeWorld(world::gen::GameId::Pool, 42);
    core::PartitionParams params;
    params.threads = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::partitionWorld(world, device::pixel2(), params));
    }
}
BENCHMARK(BM_PartitionWorld)->Arg(1)->Arg(0)->Unit(
    benchmark::kMillisecond);

void
BM_MaxCutoffRadius(benchmark::State &state)
{
    const auto &world = vikingWorld();
    const geom::Vec2 eye = world.bounds().center();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::maxCutoffRadius(world, eye, device::pixel2()));
    }
}
BENCHMARK(BM_MaxCutoffRadius);

} // namespace

BENCHMARK_MAIN();
