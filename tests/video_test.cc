/**
 * @file
 * Tests for the sequence (I/P-frame) codec: round-trip fidelity, the
 * compression advantage of P-frames on similar frames (the far-BE
 * premise), GOP structure, drift-free reconstruction, and encoded bytes
 * pinned against a recorded digest table.
 */

#include <gtest/gtest.h>

#include "image/metrics.hh"
#include "image/ssim.hh"
#include "image/video.hh"
#include <cmath>
#include <cstdint>
#include <iterator>

#include "support/rng.hh"

namespace coterie::image {
namespace {

/** A smooth textured frame drifting by @p phase — a far-BE stand-in:
 *  nearby far-BE panoramas differ by tiny sub-texel shifts. */
Image
texturedFrame(int w, int h, double phase, std::uint64_t seed)
{
    Image img(w, h);
    const double s0 = static_cast<double>(seed % 97);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const double v =
                127.0 +
                60.0 * std::sin((x + phase + s0) / 6.0) *
                    std::cos(y / 5.0) +
                40.0 * std::sin((x - 2.0 * phase) / 17.0);
            const auto b = static_cast<std::uint8_t>(
                std::clamp(v, 0.0, 255.0));
            img.at(x, y) = {b, static_cast<std::uint8_t>(255 - b), 128};
        }
    }
    return img;
}

std::vector<Image>
slowPan(int frames)
{
    std::vector<Image> out;
    for (int i = 0; i < frames; ++i)
        out.push_back(texturedFrame(96, 64, i * 0.4, 7));
    return out;
}

/**
 * Integer-only panning content for the recorded-bytes table: frame
 * @p i is a seeded noisy gradient shifted @p i pixels right, with a
 * flat band, so P-frames code small non-zero residuals.
 */
Image
goldenFrame(int w, int h, int i)
{
    Image img(w, h);
    Rng rng(0x5EED);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const int n = static_cast<int>(rng.uniformInt(0, 31));
            const int u = x + 2 * w - i;
            img.at(x, y) =
                y % 16 < 4
                    ? Rgb{30, 200, 90}
                    : Rgb{static_cast<std::uint8_t>(u * 7 % 200 + n),
                          static_cast<std::uint8_t>(y * 5 % 180 + n),
                          static_cast<std::uint8_t>((u + y) % 150 + 40)};
        }
    }
    return img;
}

/** Order-sensitive digest of an encoded frame. */
std::uint64_t
digest(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = hashMix(bytes.size());
    for (const std::uint8_t b : bytes)
        h = hashCombine(h, b);
    return h;
}

/** Order-sensitive digest of a decoded frame's pixels. */
std::uint64_t
digest(const Image &img)
{
    std::uint64_t h = hashMix(img.pixelCount());
    for (const Rgb &p : img.pixels())
        h = hashCombine(h, (std::uint64_t{p.r} << 16) |
                               (std::uint64_t{p.g} << 8) | p.b);
    return h;
}

struct RecordedFrame
{
    bool chroma;
    FrameType type;
    std::size_t size;
    std::uint64_t digest;
    std::uint64_t decoded; ///< digest of the decoded pixels

    bool operator==(const RecordedFrame &) const = default;
};

/** Per-frame sizes and digests of the goldenFrame sequence, recorded
 *  from the serial whole-plane encoder that the block-row encoder
 *  replaced, and digests of the decoded frames, recorded from the
 *  decoder that upsampled half-resolution chroma planes. */
constexpr RecordedFrame kRecorded[] = {
    {true, FrameType::Intra, 399, 0xbb79a198b1dfc114ULL, 0x9ea31de4a5f94889ULL},
    {true, FrameType::Predicted, 182, 0x45e30f7d5d3e4a53ULL,
     0x81bd6531ec290b8eULL},
    {true, FrameType::Predicted, 164, 0x89ee985c3e546b9dULL,
     0xcebf797405069337ULL},
    {true, FrameType::Predicted, 178, 0x7676e95b282bbac5ULL,
     0x37a9a7c6170088d1ULL},
    {true, FrameType::Intra, 393, 0x7314ab1d1f212f02ULL, 0xcb064461cfe599ccULL},
    {true, FrameType::Predicted, 176, 0xf787ed81bb5d5888ULL,
     0x7c6bcbba61eb4c77ULL},
    {false, FrameType::Intra, 540, 0x347150499d64c243ULL,
     0xdec008d0a85ff6d4ULL},
    {false, FrameType::Predicted, 218, 0xbb5b7e80ca839b0aULL,
     0x9658872c92d4cffdULL},
    {false, FrameType::Predicted, 224, 0xbf82506643f0eeb0ULL,
     0xdf384d0e31e59785ULL},
    {false, FrameType::Predicted, 224, 0xc41ab3931fa8b8cdULL,
     0xafb551cb9aafaa13ULL},
    {false, FrameType::Intra, 536, 0xada81e6cefee687fULL,
     0x7bb0e8f01e6ae7bcULL},
    {false, FrameType::Predicted, 226, 0x7dd4414cf0488468ULL,
     0xe7c420da55ed5026ULL},
};

TEST(Video, EncodeMatchesRecordedBytes)
{
    std::vector<Image> frames;
    for (int i = 0; i < 6; ++i)
        frames.push_back(goldenFrame(37, 21, i));
    std::size_t k = 0;
    for (const bool chroma : {true, false}) {
        VideoParams params;
        params.gopLength = 4;
        params.codec.chromaSubsample = chroma;
        const EncodedVideo video = encodeVideo(frames, params);
        const std::vector<Image> decoded = decodeVideo(video);
        ASSERT_EQ(decoded.size(), video.frames.size());
        for (std::size_t i = 0; i < video.frames.size(); ++i) {
            const EncodedVideoFrame &frame = video.frames[i];
            const RecordedFrame got{chroma, frame.type, frame.sizeBytes(),
                                    digest(frame.bytes),
                                    digest(decoded[i])};
            const RecordedFrame want =
                k < std::size(kRecorded) ? kRecorded[k] : RecordedFrame{};
            ++k;
            EXPECT_TRUE(got == want)
                << "    {" << (got.chroma ? "true" : "false") << ", "
                << (got.type == FrameType::Intra ? "FrameType::Intra"
                                                 : "FrameType::Predicted")
                << ", " << got.size << ", 0x" << std::hex << got.digest
                << "ULL, 0x" << got.decoded << std::dec << "ULL},";
        }
    }
    EXPECT_EQ(k, std::size(kRecorded));
}

TEST(Video, RoundTripFidelity)
{
    const auto frames = slowPan(10);
    const EncodedVideo video = encodeVideo(frames);
    const auto decoded = decodeVideo(video);
    ASSERT_EQ(decoded.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
        EXPECT_GT(ssim(frames[i], decoded[i]), 0.85)
            << "frame " << i;
    }
}

TEST(Video, GopStructure)
{
    VideoParams params;
    params.gopLength = 4;
    const EncodedVideo video = encodeVideo(slowPan(10), params);
    ASSERT_EQ(video.frames.size(), 10u);
    for (std::size_t i = 0; i < video.frames.size(); ++i) {
        const FrameType expected =
            i % 4 == 0 ? FrameType::Intra : FrameType::Predicted;
        EXPECT_EQ(video.frames[i].type, expected) << "frame " << i;
    }
}

TEST(Video, PFramesSmallerThanIFramesOnSimilarContent)
{
    const EncodedVideo video = encodeVideo(slowPan(8));
    ASSERT_GE(video.frames.size(), 2u);
    const double i_size =
        static_cast<double>(video.frames[0].sizeBytes());
    double p_total = 0.0;
    int p_count = 0;
    for (std::size_t i = 1; i < video.frames.size(); ++i) {
        if (video.frames[i].type == FrameType::Predicted) {
            p_total += static_cast<double>(video.frames[i].sizeBytes());
            ++p_count;
        }
    }
    ASSERT_GT(p_count, 0);
    EXPECT_LT(p_total / p_count, i_size * 0.7);
}

TEST(Video, SequenceBeatsIndependentStills)
{
    const auto frames = slowPan(8);
    const EncodedVideo video = encodeVideo(frames);
    std::size_t stills = 0;
    for (const Image &frame : frames)
        stills += encode(frame).sizeBytes();
    EXPECT_LT(video.totalBytes(), stills);
}

TEST(Video, NoDriftAcrossLongGop)
{
    // Reconstructed references prevent quantisation-error accumulation:
    // the last P-frame of a long GOP is as faithful as the first.
    VideoParams params;
    params.gopLength = 16;
    const auto frames = slowPan(16);
    const auto decoded = decodeVideo(encodeVideo(frames, params));
    const double first = ssim(frames[1], decoded[1]);
    const double last = ssim(frames[15], decoded[15]);
    EXPECT_NEAR(first, last, 0.06);
}

TEST(Video, SingleFrameSequence)
{
    const std::vector<Image> one{texturedFrame(32, 32, 0, 1)};
    const auto decoded = decodeVideo(encodeVideo(one));
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_GT(ssim(one[0], decoded[0]), 0.85);
}

TEST(Video, StaticSceneCompressesExtremely)
{
    std::vector<Image> frames(6, texturedFrame(96, 64, 0, 3));
    const EncodedVideo video = encodeVideo(frames);
    // Identical frames: P-frames shrink to the structural floor (one
    // DC delta + end-of-block marker per 8x8 block).
    for (std::size_t i = 1; i < video.frames.size(); ++i) {
        EXPECT_LT(video.frames[i].sizeBytes(),
                  video.frames[0].sizeBytes() / 4);
    }
}

TEST(VideoDeath, EmptySequencePanics)
{
    EXPECT_DEATH(encodeVideo({}), "empty");
}

TEST(VideoDeath, TrailingBytesPanic)
{
    // The encode before the fork may have started pool workers.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EncodedVideo video = encodeVideo(slowPan(3));
    EXPECT_EQ(decodeVideo(video).size(), 3u); // valid as encoded
    video.frames[1].bytes.push_back(0);
    EXPECT_DEATH(decodeVideo(video), "trailing bytes after the last plane");
}

} // namespace
} // namespace coterie::image
