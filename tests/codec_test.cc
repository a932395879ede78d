/**
 * @file
 * Tests for the block-transform intra codec: round-trip quality,
 * quality/size monotonicity, content-dependent sizing (the property the
 * bandwidth experiments rely on), determinism, and panics (not UB) on
 * malformed plane bitstreams.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "image/codec.hh"
#include "image/codec_internal.hh"
#include "image/ssim.hh"
#include "support/rng.hh"

namespace coterie::image {
namespace {

Image
gradientImage(int w, int h)
{
    Image img(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            img.at(x, y) = Rgb{static_cast<std::uint8_t>(x * 255 / w),
                               static_cast<std::uint8_t>(y * 255 / h),
                               128};
    return img;
}

Image
noiseImage(int w, int h, std::uint64_t seed)
{
    Image img(w, h);
    Rng rng(seed);
    for (auto &p : img.pixels())
        p = Rgb{static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
                static_cast<std::uint8_t>(rng.uniformInt(0, 255)),
                static_cast<std::uint8_t>(rng.uniformInt(0, 255))};
    return img;
}

TEST(Codec, RoundTripPreservesDimensions)
{
    const Image src = gradientImage(64, 48);
    const Image out = decode(encode(src));
    EXPECT_EQ(out.width(), 64);
    EXPECT_EQ(out.height(), 48);
}

TEST(Codec, RoundTripQualityIsHigh)
{
    const Image src = gradientImage(96, 96);
    CodecParams params;
    params.quality = 80;
    const double s = ssim(src, decode(encode(src, params)));
    EXPECT_GT(s, 0.95);
}

TEST(Codec, FlatImageNearlyLossless)
{
    const Image src(64, 64, Rgb{77, 140, 200});
    const Image out = decode(encode(src));
    EXPECT_LT(src.meanAbsDiff(out), 2.0);
}

TEST(Codec, HigherQualityMeansLargerAndBetter)
{
    const Image src = noiseImage(96, 96, 9);
    std::size_t prev_size = 0;
    double prev_ssim = 0.0;
    for (int q : {20, 50, 90}) {
        CodecParams params;
        params.quality = q;
        const EncodedFrame enc = encode(src, params);
        const double s = ssim(src, decode(enc));
        EXPECT_GT(enc.sizeBytes(), prev_size) << "quality " << q;
        EXPECT_GT(s, prev_ssim) << "quality " << q;
        prev_size = enc.sizeBytes();
        prev_ssim = s;
    }
}

TEST(Codec, BusyContentCostsMoreThanFlatContent)
{
    const Image flat(128, 128, Rgb{100, 100, 100});
    const Image busy = noiseImage(128, 128, 4);
    const auto flat_bytes = encode(flat).sizeBytes();
    const auto busy_bytes = encode(busy).sizeBytes();
    EXPECT_GT(busy_bytes, flat_bytes * 5);
}

TEST(Codec, Deterministic)
{
    const Image src = noiseImage(64, 64, 2);
    const EncodedFrame a = encode(src);
    const EncodedFrame b = encode(src);
    EXPECT_EQ(a.bytes, b.bytes);
}

TEST(Codec, ChromaSubsamplingShrinksStream)
{
    const Image src = noiseImage(128, 128, 6);
    CodecParams with;
    with.chromaSubsample = true;
    CodecParams without;
    without.chromaSubsample = false;
    EXPECT_LT(encode(src, with).sizeBytes(),
              encode(src, without).sizeBytes());
    // And both round-trip acceptably.
    EXPECT_GT(ssim(src, decode(encode(src, without))), 0.5);
}

TEST(Codec, NonMultipleOfBlockSizeDimensions)
{
    const Image src = gradientImage(37, 23);
    const Image out = decode(encode(src));
    EXPECT_EQ(out.width(), 37);
    EXPECT_EQ(out.height(), 23);
    EXPECT_LT(src.meanAbsDiff(out), 12.0);
}

TEST(Codec, OnePixelImage)
{
    Image src(1, 1, Rgb{200, 40, 90});
    const Image out = decode(encode(src));
    EXPECT_LT(src.meanAbsDiff(out), 8.0);
}

/** Append @p v as an unsigned LEB128 varint, as the encoder writes it. */
void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    out.push_back(static_cast<std::uint8_t>(v));
}

/** Decode one luma plane of @p w x 8 pixels from @p stream. */
void
decodeStream(const std::vector<std::uint8_t> &stream, int w)
{
    std::size_t pos = 0;
    std::vector<double> plane;
    detail::decodePlane(stream, pos, w, 8, 75, false, plane);
}

TEST(Codec, ValidPlaneStreamDecodes)
{
    // The crafted streams below differ from this one only in the field
    // they corrupt: DC delta, (run, value) pairs, end-of-block 63.
    std::vector<std::uint8_t> stream;
    putVarint(stream, 2);  // DC delta +1
    putVarint(stream, 62); // skip to the last coefficient
    putVarint(stream, 4);  // value +2
    putVarint(stream, 63); // end of block
    std::size_t pos = 0;
    std::vector<double> plane;
    detail::decodePlane(stream, pos, 8, 8, 75, false, plane);
    EXPECT_EQ(pos, stream.size());
    EXPECT_EQ(plane.size(), 64u);
}

TEST(CodecDeathTest, OverlongVarintPanics)
{
    // Eleven continuation bytes: a 64-bit varint has at most ten.
    std::vector<std::uint8_t> stream(11, 0x80);
    stream.push_back(0x00);
    EXPECT_DEATH(decodeStream(stream, 8), "varint longer than 10 bytes");
}

TEST(CodecDeathTest, NegativeRunPanics)
{
    // A run of 0xFFFFFFFE used to wrap i to -1 and write q[-1].
    std::vector<std::uint8_t> stream;
    putVarint(stream, 0);
    putVarint(stream, 0xFFFFFFFEULL);
    putVarint(stream, 2);
    putVarint(stream, 63);
    EXPECT_DEATH(decodeStream(stream, 8), "corrupt AC run");
}

TEST(CodecDeathTest, RunPastLastCoefficientPanics)
{
    // A value in the last slot leaves no room for even a zero run.
    std::vector<std::uint8_t> stream;
    putVarint(stream, 0);
    putVarint(stream, 62);
    putVarint(stream, 2);
    putVarint(stream, 0);
    putVarint(stream, 2);
    putVarint(stream, 63);
    EXPECT_DEATH(decodeStream(stream, 8), "corrupt AC run");
}

TEST(CodecDeathTest, DcSumOverflowPanics)
{
    // Two blocks: DC delta INT64_MAX, then +1 would overflow the sum.
    std::vector<std::uint8_t> stream;
    putVarint(stream, 2 * static_cast<std::uint64_t>(
                              std::numeric_limits<std::int64_t>::max()));
    putVarint(stream, 63);
    putVarint(stream, 2);
    putVarint(stream, 63);
    EXPECT_DEATH(decodeStream(stream, 16), "corrupt DC delta");
}

} // namespace
} // namespace coterie::image
