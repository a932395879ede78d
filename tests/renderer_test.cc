/**
 * @file
 * Tests for the software renderer: sky/terrain/object shading, the
 * near/far depth-layer decomposition invariant (near merged over far
 * equals the whole frame), chroma-key transparency, panorama cropping,
 * texture determinism, and byte equality with the per-pixel reference
 * renderer (reference_render.hh).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "reference_render.hh"
#include "render/pipeline.hh"
#include "render/renderer.hh"
#include "world/gen/generators.hh"

namespace coterie::render {
namespace {

using geom::Vec2;
using geom::Vec3;
using image::Image;
using image::Rgb;
using world::SceneType;
using world::TerrainParams;
using world::VirtualWorld;
using world::WorldObject;

VirtualWorld
tinyWorld()
{
    TerrainParams terrain;
    terrain.flat = true;
    VirtualWorld world("tiny", {{0, 0}, {60, 60}}, terrain);
    WorldObject near_box;
    near_box.shape = world::Shape::Box;
    near_box.position = {33, 1.0, 30};
    near_box.dims = {2, 2, 2};
    near_box.color = {200, 40, 40};
    world.addObject(near_box);
    WorldObject far_box;
    far_box.shape = world::Shape::Box;
    far_box.position = {50, 2.0, 30};
    far_box.dims = {4, 4, 4};
    far_box.color = {40, 40, 200};
    world.addObject(far_box);
    world.finalize();
    return world;
}

TEST(Renderer, SkyAboveHorizonOutdoors)
{
    const VirtualWorld world = tinyWorld();
    geom::Ray up;
    up.origin = world.eyePosition({30, 30});
    up.dir = {0.0, 1.0, 0.0};
    RenderOptions opts;
    opts.texture = false;
    const Rgb sky = reference::shadeRay(world, up, opts);
    EXPECT_EQ(sky, world.skyColor(M_PI / 2));
}

TEST(Renderer, GroundBelowFeet)
{
    const VirtualWorld world = tinyWorld();
    geom::Ray down;
    down.origin = world.eyePosition({10, 10});
    down.dir = {0.0, -1.0, 0.0};
    RenderOptions opts;
    opts.texture = false;
    opts.shading = false;
    const Rgb ground = reference::shadeRay(world, down, opts);
    EXPECT_EQ(ground, world.terrain().colorAt({10, 10}));
}

TEST(Renderer, ObjectOccludesSkyAndGetsItsColor)
{
    const VirtualWorld world = tinyWorld();
    geom::Ray toward;
    toward.origin = {30.0, 1.0, 30.0};
    toward.dir = Vec3{1.0, 0.0, 0.0}; // toward the red box at x=33
    RenderOptions opts;
    opts.texture = false;
    opts.shading = false;
    EXPECT_EQ(reference::shadeRay(world, toward, opts), (Rgb{200, 40, 40}));
}

TEST(Renderer, NearLayerClipsFarContentToChromaKey)
{
    const VirtualWorld world = tinyWorld();
    geom::Ray toward;
    toward.origin = {30.0, 2.0, 30.0};
    toward.dir = Vec3{1.0, 0.05, 0.0}.normalized(); // slightly upward
    RenderOptions near_opts;
    near_opts.layer = DepthLayer::nearBe(1.5); // red box at 2m excluded
    near_opts.texture = false;
    EXPECT_EQ(reference::shadeRay(world, toward, near_opts), near_opts.clipKey);
}

TEST(Renderer, FarLayerSkipsNearContent)
{
    const VirtualWorld world = tinyWorld();
    geom::Ray toward;
    toward.origin = {30.0, 2.0, 30.0};
    toward.dir = Vec3{1.0, 0.0, 0.0};
    RenderOptions far_opts;
    far_opts.layer = DepthLayer::farBe(10.0); // past the red box (3m)
    far_opts.texture = false;
    far_opts.shading = false;
    // The ray now sees the blue box at 20m instead of the red at 3m.
    EXPECT_EQ(reference::shadeRay(world, toward, far_opts), (Rgb{40, 40, 200}));
}

TEST(Renderer, MergeOfNearAndFarEqualsWholeFrame)
{
    // The core split-rendering invariant: render near BE and far BE
    // separately at the same cutoff and merge; the result must equal
    // the whole-scene render (modulo nothing — same rays, same
    // shading).
    const world::VirtualWorld world =
        world::gen::makeWorld(world::gen::GameId::Pool, 11);
    const Renderer renderer(world);
    const Vec3 eye = world.eyePosition({5.0, 6.0});
    const double cutoff = 4.0;

    RenderOptions whole;
    const Image full = renderer.renderPanorama(eye, 96, 48, whole);
    RenderOptions near_opts;
    near_opts.layer = DepthLayer::nearBe(cutoff);
    const Image near_img = renderer.renderPanorama(eye, 96, 48, near_opts);
    RenderOptions far_opts;
    far_opts.layer = DepthLayer::farBe(cutoff);
    const Image far_img = renderer.renderPanorama(eye, 96, 48, far_opts);

    const Image merged = Renderer::merge(near_img, far_img);
    // Allow a tiny number of boundary pixels to differ (points exactly
    // at the cutoff).
    int mismatches = 0;
    for (int y = 0; y < full.height(); ++y)
        for (int x = 0; x < full.width(); ++x)
            mismatches += !(merged.at(x, y) == full.at(x, y));
    EXPECT_LE(mismatches, full.width() * full.height() / 100);
}

TEST(Renderer, PanoramaDirectionRoundTrip)
{
    for (double u : {0.1, 0.4, 0.7, 0.95}) {
        for (double v : {0.1, 0.5, 0.9}) {
            const Vec3 dir = panoramaDirection(u, v);
            EXPECT_NEAR(dir.length(), 1.0, 1e-12);
            double u2, v2;
            directionToPanoramaUv(dir, u2, v2);
            EXPECT_NEAR(u2, u, 1e-9);
            EXPECT_NEAR(v2, v, 1e-9);
        }
    }
}

TEST(Renderer, PanoramaRowDirsMatchPanoramaDirection)
{
    // A frame's yaw table and a row's pitch basis rebuild
    // panoramaDirection at every texel center bit for bit: odd widths
    // and one past a power of two, on the pole rows (first and last)
    // and the equator rows (the middle one or two).
    const auto bits = [](double d) {
        return std::bit_cast<std::uint64_t>(d);
    };
    for (const int width : {1, 3, 7, 513}) {
        const detail::PanoramaYaw yaw = detail::panoramaYaw(width);
        detail::RowBuffers rows;
        rows.resize(width);
        for (const int height : {1, 255, 256}) {
            for (const int y :
                 {0, (height - 1) / 2, height / 2, height - 1}) {
                detail::panoramaRowDirs(y, height, yaw, rows);
                const double v = (y + 0.5) / height;
                for (int x = 0; x < width; ++x) {
                    const auto i = static_cast<std::size_t>(x);
                    const Vec3 dir =
                        panoramaDirection((x + 0.5) / width, v);
                    SCOPED_TRACE(testing::Message()
                                 << width << "x" << height << " texel "
                                 << x << "," << y);
                    EXPECT_EQ(bits(rows.dirX[i]), bits(dir.x));
                    EXPECT_EQ(bits(rows.dirY[i]), bits(dir.y));
                    EXPECT_EQ(bits(rows.dirZ[i]), bits(dir.z));
                }
            }
        }
    }
}

TEST(Renderer, CropPanoramaMatchesPerspectiveApproximately)
{
    const world::VirtualWorld world =
        world::gen::makeWorld(world::gen::GameId::Pool, 11);
    const Renderer renderer(world);
    const Vec3 eye = world.eyePosition({5.0, 6.0});
    RenderOptions opts;
    const Image pano = renderer.renderPanorama(eye, 512, 256, opts);

    Camera cam;
    cam.position = eye;
    cam.yaw = 0.7;
    const Image direct = renderer.renderPerspective(cam, 64, 64, opts);
    const Image cropped = cropPanoramaToView(pano, cam, 64, 64);
    // Nearest-texel resampling: expect agreement, not equality.
    EXPECT_LT(direct.meanAbsDiff(cropped), 40.0);
}

TEST(Renderer, DeterministicAcrossThreadCounts)
{
    const VirtualWorld world = tinyWorld();
    const Renderer renderer(world);
    RenderOptions serial;
    serial.threads = 1;
    RenderOptions parallel;
    parallel.threads = 4;
    const Vec3 eye = world.eyePosition({30, 30});
    EXPECT_EQ(renderer.renderPanorama(eye, 64, 32, serial),
              renderer.renderPanorama(eye, 64, 32, parallel));
}

/**
 * Render the same view through the production pipeline and the
 * per-pixel reference renderer and require byte equality. The pano
 * resolution deliberately includes the poles (first and last rows,
 * where the row basis degenerates toward sp=±1) and the yaw seam
 * (first and last columns).
 */
void
expectPathsAgree(const world::VirtualWorld &world, const Vec3 &eye,
                 const RenderOptions &opts, const char *tag)
{
    const Renderer renderer(world);
    EXPECT_EQ(renderer.renderPanorama(eye, 64, 32, opts),
              reference::renderPanorama(world, eye, 64, 32, opts))
        << tag << ": pano != reference pano";

    Camera cam;
    cam.position = eye;
    cam.yaw = 0.7;
    cam.pitch = -0.2;
    EXPECT_EQ(renderer.renderPerspective(cam, 40, 30, opts),
              reference::renderPerspective(world, cam, 40, 30, opts))
        << tag << ": persp != reference persp";
}

TEST(Renderer, RenderPathsAgreeAcrossWorlds)
{
    using world::gen::GameId;
    for (GameId id : {GameId::Racing, GameId::CTS, GameId::Viking}) {
        const world::VirtualWorld world = world::gen::makeWorld(id, 42);
        const Vec3 eye = world.eyePosition(world.bounds().center());
        expectPathsAgree(world, eye, RenderOptions{}, world.name().c_str());
    }
}

TEST(Renderer, RenderPathsAgreeOnDepthLayers)
{
    // The near layer exercises the clip-key path (finite farClip) and
    // the far layer the shifted tMin window; both must agree with the
    // reference, including which pixels collapse to the chroma key.
    const world::VirtualWorld world =
        world::gen::makeWorld(world::gen::GameId::Racing, 42);
    const Vec3 eye = world.eyePosition(world.bounds().center());
    RenderOptions near_opts;
    near_opts.layer = DepthLayer::nearBe(25.0);
    expectPathsAgree(world, eye, near_opts, "racing/near");
    RenderOptions far_opts;
    far_opts.layer = DepthLayer::farBe(25.0);
    expectPathsAgree(world, eye, far_opts, "racing/far");
}

TEST(Renderer, BatchedPathDeterministicAcrossThreadCounts)
{
    // Chunked row batching must not leak scheduling into pixels: a
    // textured, object-dense world at 1 and 4 threads produces
    // identical frames.
    const world::VirtualWorld world =
        world::gen::makeWorld(world::gen::GameId::Pool, 11);
    const Renderer renderer(world);
    const Vec3 eye = world.eyePosition({5.0, 6.0});
    RenderOptions serial;
    serial.threads = 1;
    RenderOptions parallel;
    parallel.threads = 4;
    EXPECT_EQ(renderer.renderPanorama(eye, 64, 32, serial),
              renderer.renderPanorama(eye, 64, 32, parallel));
}

TEST(Renderer, TextureAddsHighFrequencyDetail)
{
    const world::VirtualWorld world =
        world::gen::makeWorld(world::gen::GameId::Pool, 11);
    const Renderer renderer(world);
    const Vec3 eye = world.eyePosition({5.0, 6.0});
    RenderOptions with;
    RenderOptions without;
    without.texture = false;
    const Image tex = renderer.renderPanorama(eye, 96, 48, with);
    const Image flat = renderer.renderPanorama(eye, 96, 48, without);
    // Textured frames differ from flat ones and are reproducible.
    EXPECT_GT(tex.meanAbsDiff(flat), 2.0);
    EXPECT_EQ(tex, renderer.renderPanorama(eye, 96, 48, with));
}

TEST(RendererDeath, MergeSizeMismatchPanics)
{
    const Image a(4, 4), b(5, 4);
    EXPECT_DEATH(Renderer::merge(a, b), "mismatch");
}

} // namespace
} // namespace coterie::render
