/**
 * @file
 * Tests for the block-transform intra codec: round-trip quality,
 * quality/size monotonicity, content-dependent sizing (the property the
 * bandwidth experiments rely on), determinism, encoded bytes pinned
 * against a recorded digest table, and panics (not UB) on malformed
 * plane bitstreams.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
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
    bool chroma;
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
    {1, 1, true, 1, 6, 0x7365b67de1113854ULL, 0xdb2cc8c4e4f811c5ULL},
    {1, 1, true, 60, 7, 0x3ef1de4ca08abab2ULL, 0xdb2cc8c4e7030ec9ULL},
    {1, 1, true, 100, 8, 0xcff8b277eaa12e8cULL, 0xdb2cc8c4e7030dc8ULL},
    {1, 1, false, 1, 6, 0x7365b67de1113854ULL, 0xdb2cc8c4e4f811c5ULL},
    {1, 1, false, 60, 7, 0x3ef1de4ca08abab2ULL, 0xdb2cc8c4e7030ec9ULL},
    {1, 1, false, 100, 8, 0xcff8b277eaa12e8cULL, 0xdb2cc8c4e7030dc8ULL},
    {1, 17, true, 1, 14, 0x6881d3c9e882723aULL, 0x43b2e19c5869bb69ULL},
    {1, 17, true, 60, 35, 0x6f20437d8cb2b39eULL, 0x5cb96ba4082a6abdULL},
    {1, 17, true, 100, 38, 0xf9853aa319b4c91eULL, 0x6b571b1eaac99e34ULL},
    {1, 17, false, 1, 18, 0x101d744287f5eb68ULL, 0xefe82ef3bae6e8efULL},
    {1, 17, false, 60, 49, 0x802d5ab67cd55220ULL, 0xcf6930d0a79a1ea6ULL},
    {1, 17, false, 100, 58, 0x969a3ad768ad3a3eULL, 0x727675dd73162444ULL},
    {7, 9, true, 1, 8, 0x623ef0359828a1f1ULL, 0xd405ea07ebf2170dULL},
    {7, 9, true, 60, 51, 0x1e7f2475650616ddULL, 0xfec3db1aa6c38dbfULL},
    {7, 9, true, 100, 52, 0xbce35b477745728eULL, 0xcfd185b8657b48feULL},
    {7, 9, false, 1, 14, 0x24e25b7ae279b981ULL, 0xd1edae396677fc46ULL},
    {7, 9, false, 60, 49, 0x367b9bd4f02040a3ULL, 0xa3c6cf3d4cf96cacULL},
    {7, 9, false, 100, 50, 0x67313f7b9f6cd22dULL, 0x68b42b73df9aa40aULL},
    {8, 8, true, 1, 6, 0x7365b67de1113854ULL, 0x1a9a0018d4cd48a9ULL},
    {8, 8, true, 60, 7, 0x3ef1de4ca08abab2ULL, 0x544e810de74aeee2ULL},
    {8, 8, true, 100, 8, 0xcff8b277eaa12e8cULL, 0xe76b6a07a6ce4ab0ULL},
    {8, 8, false, 1, 6, 0x7365b67de1113854ULL, 0x1a9a0018d4cd48a9ULL},
    {8, 8, false, 60, 7, 0x3ef1de4ca08abab2ULL, 0x544e810de74aeee2ULL},
    {8, 8, false, 100, 8, 0xcff8b277eaa12e8cULL, 0xe76b6a07a6ce4ab0ULL},
    {9, 16, true, 1, 16, 0xecd70acc98043713ULL, 0x82197ce2159d44a7ULL},
    {9, 16, true, 60, 107, 0x56dd797837ed35c1ULL, 0x4054d6e141d6a332ULL},
    {9, 16, true, 100, 150, 0xbeeae3764bf44777ULL, 0xdce32e939dd34ab0ULL},
    {9, 16, false, 1, 26, 0x55dc882c5ac1b35bULL, 0x11c9b07cb08ae50eULL},
    {9, 16, false, 60, 153, 0xbf17734b50bd66caULL, 0x8cf309d12c96eb6eULL},
    {9, 16, false, 100, 224, 0xa70f9506a07e89bULL, 0x1efa72984e91d2c3ULL},
    {16, 9, true, 1, 20, 0xe4ac7179c469e83dULL, 0xf5bb4a3b98148935ULL},
    {16, 9, true, 60, 127, 0xe1ff3829d2013973ULL, 0x13193336c5a9901fULL},
    {16, 9, true, 100, 173, 0x70fb55d6241b86baULL, 0x93c8483c44a3b8b3ULL},
    {16, 9, false, 1, 28, 0xe912c619a8db3d7dULL, 0xd7419280d00cd2c4ULL},
    {16, 9, false, 60, 163, 0x77cf7741cc7cc111ULL, 0x49839cc98a045622ULL},
    {16, 9, false, 100, 245, 0x3a998ba10258d2f4ULL, 0x1ce8bba8e1695be0ULL},
    {17, 33, true, 1, 64, 0x2c7eb08104861a71ULL, 0xd3a78fde8199adf0ULL},
    {17, 33, true, 60, 387, 0xd41c3cc04d0760b1ULL, 0xa9d10e47c7246af2ULL},
    {17, 33, true, 100, 570, 0xba4974def8327d42ULL, 0x6d86c02216fda791ULL},
    {17, 33, false, 1, 90, 0x1bd4791533c5da4cULL, 0xfb0ae73336618824ULL},
    {17, 33, false, 60, 597, 0xd34f184d970056faULL, 0x54c89256703f8f51ULL},
    {17, 33, false, 100, 935, 0xcfc6bbc6e3645577ULL, 0x23d5b9919362330ULL},
    {33, 17, true, 1, 56, 0x2336f10a2f8b6af2ULL, 0xcda3686259739bebULL},
    {33, 17, true, 60, 354, 0x7ba6c35662275784ULL, 0x4b892b9b3f507ba3ULL},
    {33, 17, true, 100, 537, 0xa531b3b080d8db10ULL, 0x263f14d2bdecd667ULL},
    {33, 17, false, 1, 92, 0x1a1c330cc4731a62ULL, 0x9eac4949473445f3ULL},
    {33, 17, false, 60, 592, 0xf11fad059e667ff8ULL, 0x8f1e4154353b27b6ULL},
    {33, 17, false, 100, 943, 0xb1fcb986b8c4fab3ULL, 0xfc0af54fa4b609b9ULL},
    {31, 7, true, 1, 20, 0x9d02c1991be9d37cULL, 0x8c582c8f0fc53e2ULL},
    {31, 7, true, 60, 139, 0x8764ba543b2e8485ULL, 0xbf098219457a10afULL},
    {31, 7, true, 100, 212, 0x87f8760ab126ba5bULL, 0x39d405e07f1e637bULL},
    {31, 7, false, 1, 32, 0x953b4e4da86c1f2ULL, 0xc037b997395db694ULL},
    {31, 7, false, 60, 199, 0xb20605c9b46892b5ULL, 0x9981f791c1b031e3ULL},
    {31, 7, false, 100, 286, 0x68761a42edba41afULL, 0x7513f1140cfc8377ULL},
    {512, 256, true, 1, 7046, 0x2716c1ec19911181ULL, 0xf58b0c98f7c52e2cULL},
    {512, 256, true, 60, 53639, 0x2fd1f0342aacc535ULL, 0x3d66fd295949ea6fULL},
    {512, 256, true, 100, 96344, 0xdb2a1d8820ebd257ULL, 0x6fb130922a0949aeULL},
    {512, 256, false, 1, 12514, 0xc192df36b1da6a82ULL, 0x11533116cfde493aULL},
    {512, 256, false, 60, 96770, 0x8f94ac28858258b9ULL, 0xb5d67f31724840d5ULL},
    {512, 256, false, 100, 181180, 0xfe1bec6ea47d21e0ULL,
     0x1b01b88d6e5b6f72ULL},
};

TEST(Codec, EncodeMatchesRecordedBytes)
{
    std::size_t i = 0;
    for (const auto &[w, h] : {std::pair{1, 1}, {1, 17}, {7, 9}, {8, 8},
                              {9, 16}, {16, 9}, {17, 33}, {33, 17},
                              {31, 7}, {512, 256}}) {
        const Image src = goldenImage(w, h);
        for (const bool chroma : {true, false}) {
            for (const int quality : {1, 60, 100}) {
                CodecParams params;
                params.quality = quality;
                params.chromaSubsample = chroma;
                const EncodedFrame enc = encode(src, params);
                const RecordedStream got{w, h, chroma, quality,
                                         enc.sizeBytes(),
                                         digest(enc.bytes),
                                         digest(decode(enc))};
                const RecordedStream want =
                    i < std::size(kRecorded) ? kRecorded[i]
                                             : RecordedStream{};
                ++i;
                EXPECT_TRUE(got == want)
                    << "    {" << got.w << ", " << got.h << ", "
                    << (got.chroma ? "true" : "false") << ", "
                    << got.quality << ", " << got.size << ", 0x"
                    << std::hex << got.digest << "ULL, 0x" << got.decoded
                    << std::dec << "ULL},";
            }
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
