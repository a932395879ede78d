/**
 * @file
 * Tests for the SSIM metric: identity, symmetry, range, and the
 * monotone-degradation property the frame-similarity machinery relies
 * on (more noise -> lower SSIM; small shifts on textured content ->
 * lower SSIM than on flat content).
 */

#include <gtest/gtest.h>

#include "image/ssim.hh"
#include "support/rng.hh"

namespace coterie::image {
namespace {

Image
noiseImage(int w, int h, std::uint64_t seed)
{
    Image img(w, h);
    Rng rng(seed);
    for (auto &p : img.pixels()) {
        p.r = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        p.g = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        p.b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    }
    return img;
}

Image
addNoise(const Image &base, double sigma, std::uint64_t seed)
{
    Image out = base;
    Rng rng(seed);
    for (auto &p : out.pixels()) {
        auto jitter = [&](std::uint8_t c) {
            const double v = c + rng.normal(0.0, sigma);
            return static_cast<std::uint8_t>(
                std::clamp(v, 0.0, 255.0));
        };
        p = Rgb{jitter(p.r), jitter(p.g), jitter(p.b)};
    }
    return out;
}

TEST(Ssim, IdenticalImagesScoreOne)
{
    const Image img = noiseImage(64, 64, 1);
    EXPECT_NEAR(ssim(img, img), 1.0, 1e-12);
}

TEST(Ssim, Symmetric)
{
    const Image a = noiseImage(64, 64, 1);
    const Image b = addNoise(a, 20.0, 2);
    EXPECT_NEAR(ssim(a, b), ssim(b, a), 1e-12);
}

TEST(Ssim, UncorrelatedNoiseScoresLow)
{
    const Image a = noiseImage(64, 64, 1);
    const Image b = noiseImage(64, 64, 2);
    EXPECT_LT(ssim(a, b), 0.2);
}

TEST(Ssim, MonotoneInNoiseLevel)
{
    const Image base = noiseImage(96, 96, 7);
    double prev = 1.0;
    for (double sigma : {2.0, 8.0, 24.0, 60.0}) {
        const double s = ssim(base, addNoise(base, sigma, 11));
        EXPECT_LT(s, prev) << "sigma=" << sigma;
        prev = s;
    }
}

TEST(Ssim, FlatImagesWithEqualMeansScoreHigh)
{
    const Image a(32, 32, Rgb{128, 128, 128});
    const Image b(32, 32, Rgb{129, 129, 129});
    EXPECT_GT(ssim(a, b), 0.99);
}

TEST(Ssim, BrightnessShiftPenalized)
{
    const Image a(64, 64, Rgb{100, 100, 100});
    const Image b(64, 64, Rgb{200, 200, 200});
    // Pure luminance shift on zero-variance content: only the
    // luminance term penalizes (~0.8).
    EXPECT_LT(ssim(a, b), 0.85);
}

TEST(Ssim, ShiftedTexturePenalizedMoreThanShiftedFlat)
{
    // Build a textured image and a flat image; shift both by 2 px.
    const Image tex = noiseImage(96, 96, 5);
    Image tex_shift(96, 96);
    for (int y = 0; y < 96; ++y)
        for (int x = 0; x < 96; ++x)
            tex_shift.at(x, y) = tex.at((x + 2) % 96, y);
    const Image flat(96, 96, Rgb{50, 90, 140});
    const Image flat_shift = flat; // shifting flat is a no-op
    EXPECT_LT(ssim(tex, tex_shift) + 0.3, ssim(flat, flat_shift));
}

TEST(Ssim, SmallImageDegenerateWindowStillWorks)
{
    const Image a(4, 4, Rgb{10, 10, 10});
    const Image b(4, 4, Rgb{10, 10, 10});
    EXPECT_NEAR(ssim(a, b), 1.0, 1e-9);
}

TEST(Ssim, StrideParameterKeepsResultClose)
{
    const Image a = noiseImage(64, 64, 3);
    const Image b = addNoise(a, 15.0, 4);
    SsimParams dense;
    dense.stride = 1;
    SsimParams sparse;
    sparse.stride = 8;
    EXPECT_NEAR(ssim(a, b, dense), ssim(a, b, sparse), 0.05);
}

TEST(Ssim, TiledKernelMatchesNaiveReferenceOnRandomImages)
{
    // ssimLuma (the pool-parallel tiled kernel where it applies: the
    // 4-lane stride-4 tiles, and the scalar tile loop at stride 2)
    // must agree with the naive O(win^2)-per-window formulation to
    // within 1e-12 across overlap factors and odd geometries.
    struct Case { int w, h, win, stride; };
    for (const Case &c : {Case{64, 64, 8, 4}, Case{64, 64, 8, 2},
                          Case{128, 64, 8, 1}, Case{512, 256, 8, 4},
                          Case{96, 48, 11, 3}, Case{70, 130, 16, 5}}) {
        const Image a = noiseImage(c.w, c.h, 21);
        const Image b = addNoise(a, 18.0, 22);
        SsimParams params;
        params.windowSize = c.win;
        params.stride = c.stride;
        const double fast = ssim(a, b, params);
        const double naive = ssimLumaReference(
            a.lumaPlane(), b.lumaPlane(), c.w, c.h, params);
        EXPECT_NEAR(fast, naive, 1e-12)
            << c.w << "x" << c.h << " win=" << c.win
            << " stride=" << c.stride;
    }
}

TEST(Ssim, BitIdenticalToReferenceAtStrideEqualsWindow)
{
    const Image a = noiseImage(128, 96, 31);
    const Image b = addNoise(a, 25.0, 32);
    SsimParams params;
    params.windowSize = 8;
    params.stride = 8; // disjoint windows: the kernels must agree exactly
    EXPECT_EQ(ssim(a, b, params),
              ssimLumaReference(a.lumaPlane(), b.lumaPlane(), 128, 96,
                                params));
}

TEST(Ssim, SerialAndPooledKernelsBitIdentical)
{
    const Image a = noiseImage(256, 128, 41);
    const Image b = addNoise(a, 12.0, 42);
    SsimParams serial;
    serial.threads = 1;
    SsimParams pooled;
    pooled.threads = 0;
    EXPECT_EQ(ssim(a, b, serial), ssim(a, b, pooled));
}

TEST(SsimDeath, MismatchedSizesPanic)
{
    const Image a(8, 8), b(9, 8);
    EXPECT_DEATH(ssim(a, b), "mismatch");
}

} // namespace
} // namespace coterie::image
