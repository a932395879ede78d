/**
 * @file
 * Cross-module determinism and fuzz tests: identical seeds must yield
 * bit-identical experiment results end to end (the reproducibility
 * guarantee every bench relies on), and the codec must round-trip
 * arbitrary content without corruption.
 */

#include <gtest/gtest.h>

#include "core/session.hh"
#include "image/codec.hh"
#include "image/ssim.hh"
#include "support/rng.hh"

namespace coterie {
namespace {

TEST(Determinism, SessionsWithSameSeedMatchExactly)
{
    core::SessionParams params;
    params.players = 2;
    params.durationS = 10.0;
    params.seed = 77;
    auto a = core::Session::create(world::gen::GameId::Pool, params);
    auto b = core::Session::create(world::gen::GameId::Pool, params);

    ASSERT_EQ(a->partition().leaves.size(), b->partition().leaves.size());
    for (std::size_t i = 0; i < a->partition().leaves.size(); ++i) {
        EXPECT_DOUBLE_EQ(a->partition().leaves[i].cutoffRadius,
                         b->partition().leaves[i].cutoffRadius);
        EXPECT_DOUBLE_EQ(a->distThresholds()[i], b->distThresholds()[i]);
    }
    EXPECT_DOUBLE_EQ(a->similarityParams().decay,
                     b->similarityParams().decay);

    const auto ra = a->runCoterieSystem();
    const auto rb = b->runCoterieSystem();
    ASSERT_EQ(ra.players.size(), rb.players.size());
    for (std::size_t p = 0; p < ra.players.size(); ++p) {
        EXPECT_EQ(ra.players[p].framesDisplayed,
                  rb.players[p].framesDisplayed);
        EXPECT_EQ(ra.players[p].framesFetched,
                  rb.players[p].framesFetched);
        EXPECT_DOUBLE_EQ(ra.players[p].interFrameMs,
                         rb.players[p].interFrameMs);
        EXPECT_DOUBLE_EQ(ra.players[p].beMbps, rb.players[p].beMbps);
    }
}

TEST(Determinism, DifferentSeedsChangeTheOutcome)
{
    core::SessionParams a_params;
    a_params.players = 1;
    a_params.durationS = 10.0;
    a_params.seed = 1;
    core::SessionParams b_params = a_params;
    b_params.seed = 2;
    auto a = core::Session::create(world::gen::GameId::Pool, a_params);
    auto b = core::Session::create(world::gen::GameId::Pool, b_params);
    // Traces differ, so fetch counts differ (with high probability).
    const auto ra = a->runCoterieSystem();
    const auto rb = b->runCoterieSystem();
    EXPECT_NE(ra.players[0].gridTransitions,
              rb.players[0].gridTransitions);
}

/** Codec fuzz: random content of random sizes must round-trip. */
class CodecFuzz : public testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CodecFuzz, RoundTripsArbitraryContent)
{
    Rng rng(GetParam());
    const int w = static_cast<int>(rng.uniformInt(1, 90));
    const int h = static_cast<int>(rng.uniformInt(1, 90));
    image::Image img(w, h);
    // Mix of flat runs, gradients, and noise.
    const int mode = static_cast<int>(rng.uniformInt(0, 2));
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            switch (mode) {
              case 0:
                img.at(x, y) = {static_cast<std::uint8_t>(
                                    rng.uniformInt(0, 255)),
                                static_cast<std::uint8_t>(
                                    rng.uniformInt(0, 255)),
                                static_cast<std::uint8_t>(
                                    rng.uniformInt(0, 255))};
                break;
              case 1:
                img.at(x, y) = {static_cast<std::uint8_t>(x * 255 /
                                                          std::max(1, w)),
                                static_cast<std::uint8_t>(y * 255 /
                                                          std::max(1, h)),
                                77};
                break;
              default:
                img.at(x, y) = {200, 40, 120};
            }
        }
    }
    image::CodecParams params;
    params.quality = static_cast<int>(rng.uniformInt(1, 100));
    const image::Image out =
        image::decode(image::encode(img, params));
    ASSERT_EQ(out.width(), w);
    ASSERT_EQ(out.height(), h);
    // Round trip must be sane even at quality 1 (no corruption).
    EXPECT_LT(img.meanAbsDiff(out), 80.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         testing::Range<std::uint64_t>(1, 25));

} // namespace
} // namespace coterie
