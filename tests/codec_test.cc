/**
 * @file
 * Tests for the block-transform intra codec: round-trip quality,
 * quality/size monotonicity, content-dependent sizing (the property the
 * bandwidth experiments rely on), determinism, encoded bytes pinned
 * against a recorded digest table, and panics (not UB) on malformed
 * bitstreams.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "image/codec.hh"
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

/**
 * Integer-only synthetic content for the recorded-bytes tables: a
 * gradient with seeded noise, every third 8x8 cell flat, so streams
 * hold busy blocks, smooth blocks and end-of-block-only blocks.
 */
Image
goldenImage(int w, int h)
{
    Image img(w, h);
    Rng rng(hashCombine(static_cast<std::uint64_t>(w),
                        static_cast<std::uint64_t>(h)));
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const int n = static_cast<int>(rng.uniformInt(0, 63));
            if ((x / 8 + y / 8) % 3 == 0) {
                img.at(x, y) = Rgb{90, 160, 40};
                continue;
            }
            img.at(x, y) =
                Rgb{static_cast<std::uint8_t>(x * 191 / w + n),
                    static_cast<std::uint8_t>(y * 191 / h + (n * 7) % 64),
                    static_cast<std::uint8_t>((x + 2 * y) % 192 + n / 2)};
        }
    }
    return img;
}

/** Order-sensitive digest of an encoded stream. */
std::uint64_t
digest(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = hashMix(bytes.size());
    for (const std::uint8_t b : bytes)
        h = hashCombine(h, b);
    return h;
}

/** Order-sensitive digest of an image's pixels. */
std::uint64_t
digest(const Image &img)
{
    std::uint64_t h = hashMix(img.pixelCount());
    for (const Rgb &p : img.pixels())
        h = hashCombine(h, (std::uint64_t{p.r} << 16) |
                               (std::uint64_t{p.g} << 8) | p.b);
    return h;
}

struct RecordedStream
{
    int w, h;
    int quality;
    std::size_t size;
    std::uint64_t digest;
    std::uint64_t decoded; ///< digest of the decoded pixels

    bool operator==(const RecordedStream &) const = default;
};

/** Sizes and digests of goldenImage streams, recorded from the serial
 *  whole-plane encoder that the block-row encoder replaced, and digests
 *  of their decoded pixels, recorded from the decoder that upsampled
 *  half-resolution chroma planes. */
constexpr RecordedStream kRecorded[] = {
    {1, 1, 1, 6, 0x7365b67de1113854ULL, 0xdb2cc8c4e4f811c5ULL},
    {1, 1, 60, 7, 0x3ef1de4ca08abab2ULL, 0xdb2cc8c4e7030ec9ULL},
    {1, 1, 100, 8, 0xcff8b277eaa12e8cULL, 0xdb2cc8c4e7030dc8ULL},
    {1, 17, 1, 14, 0x6881d3c9e882723aULL, 0x43b2e19c5869bb69ULL},
    {1, 17, 60, 35, 0x6f20437d8cb2b39eULL, 0x5cb96ba4082a6abdULL},
    {1, 17, 100, 38, 0xf9853aa319b4c91eULL, 0x6b571b1eaac99e34ULL},
    {7, 9, 1, 8, 0x623ef0359828a1f1ULL, 0xd405ea07ebf2170dULL},
    {7, 9, 60, 51, 0x1e7f2475650616ddULL, 0xfec3db1aa6c38dbfULL},
    {7, 9, 100, 52, 0xbce35b477745728eULL, 0xcfd185b8657b48feULL},
    {8, 8, 1, 6, 0x7365b67de1113854ULL, 0x1a9a0018d4cd48a9ULL},
    {8, 8, 60, 7, 0x3ef1de4ca08abab2ULL, 0x544e810de74aeee2ULL},
    {8, 8, 100, 8, 0xcff8b277eaa12e8cULL, 0xe76b6a07a6ce4ab0ULL},
    {9, 16, 1, 16, 0xecd70acc98043713ULL, 0x82197ce2159d44a7ULL},
    {9, 16, 60, 107, 0x56dd797837ed35c1ULL, 0x4054d6e141d6a332ULL},
    {9, 16, 100, 150, 0xbeeae3764bf44777ULL, 0xdce32e939dd34ab0ULL},
    {16, 9, 1, 20, 0xe4ac7179c469e83dULL, 0xf5bb4a3b98148935ULL},
    {16, 9, 60, 127, 0xe1ff3829d2013973ULL, 0x13193336c5a9901fULL},
    {16, 9, 100, 173, 0x70fb55d6241b86baULL, 0x93c8483c44a3b8b3ULL},
    {17, 33, 1, 64, 0x2c7eb08104861a71ULL, 0xd3a78fde8199adf0ULL},
    {17, 33, 60, 387, 0xd41c3cc04d0760b1ULL, 0xa9d10e47c7246af2ULL},
    {17, 33, 100, 570, 0xba4974def8327d42ULL, 0x6d86c02216fda791ULL},
    {33, 17, 1, 56, 0x2336f10a2f8b6af2ULL, 0xcda3686259739bebULL},
    {33, 17, 60, 354, 0x7ba6c35662275784ULL, 0x4b892b9b3f507ba3ULL},
    {33, 17, 100, 537, 0xa531b3b080d8db10ULL, 0x263f14d2bdecd667ULL},
    {31, 7, 1, 20, 0x9d02c1991be9d37cULL, 0x8c582c8f0fc53e2ULL},
    {31, 7, 60, 139, 0x8764ba543b2e8485ULL, 0xbf098219457a10afULL},
    {31, 7, 100, 212, 0x87f8760ab126ba5bULL, 0x39d405e07f1e637bULL},
    {512, 256, 1, 7046, 0x2716c1ec19911181ULL, 0xf58b0c98f7c52e2cULL},
    {512, 256, 60, 53639, 0x2fd1f0342aacc535ULL, 0x3d66fd295949ea6fULL},
    {512, 256, 100, 96344, 0xdb2a1d8820ebd257ULL, 0x6fb130922a0949aeULL},
};

TEST(Codec, EncodeMatchesRecordedBytes)
{
    std::size_t i = 0;
    for (const auto &[w, h] : {std::pair{1, 1}, {1, 17}, {7, 9}, {8, 8},
                              {9, 16}, {16, 9}, {17, 33}, {33, 17},
                              {31, 7}, {512, 256}}) {
        const Image src = goldenImage(w, h);
        for (const int quality : {1, 60, 100}) {
            CodecParams params;
            params.quality = quality;
            const EncodedFrame enc = encode(src, params);
            const RecordedStream got{w, h, quality, enc.sizeBytes(),
                                     digest(enc.bytes), digest(decode(enc))};
            const RecordedStream want =
                i < std::size(kRecorded) ? kRecorded[i] : RecordedStream{};
            ++i;
            EXPECT_TRUE(got == want)
                << "    {" << got.w << ", " << got.h << ", " << got.quality
                << ", " << got.size << ", 0x" << std::hex << got.digest
                << "ULL, 0x" << got.decoded << std::dec << "ULL},";
        }
    }
    EXPECT_EQ(i, std::size(kRecorded));
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

/** Decode @p stream as a @p w x 8 frame at quality 75. */
Image
decodeStream(std::vector<std::uint8_t> stream, int w)
{
    EncodedFrame enc;
    enc.width = w;
    enc.height = 8;
    enc.params.quality = 75;
    enc.bytes = std::move(stream);
    return decode(enc);
}

TEST(Codec, ValidPlaneStreamDecodes)
{
    // The crafted luma streams below differ from this one only in the
    // field they corrupt: DC delta, (run, value) pairs, end-of-block 63.
    std::vector<std::uint8_t> stream;
    putVarint(stream, 2);  // DC delta +1
    putVarint(stream, 62); // skip to the last coefficient
    putVarint(stream, 4);  // value +2
    putVarint(stream, 63); // end of block
    // An 8x8 frame's Co and Cg planes are 4x4: one block each, all
    // zero (DC delta 0, then end of block).
    for (int plane = 0; plane < 2; ++plane) {
        putVarint(stream, 0);
        putVarint(stream, 63);
    }
    // decode panics on a short stream and on trailing bytes, so
    // returning means the stream was consumed exactly.
    const Image out = decodeStream(stream, 8);
    EXPECT_EQ(out.width(), 8);
    EXPECT_EQ(out.height(), 8);
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

TEST(CodecDeathTest, TrailingBytesPanic)
{
    // The encode before the fork may have started pool workers.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EncodedFrame enc = encode(goldenImage(17, 33));
    const Image out = decode(enc); // the stream as encoded is valid
    EXPECT_EQ(out.width(), 17);
    EXPECT_EQ(out.height(), 33);
    enc.bytes.push_back(0);
    EXPECT_DEATH(decode(enc), "trailing bytes after the last plane");
}

} // namespace
} // namespace coterie::image
