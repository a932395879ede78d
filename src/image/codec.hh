/**
 * @file
 * Intra-frame block-transform codec.
 *
 * The paper encodes pre-rendered panoramic frames with x264 (CRF 25,
 * fastdecode). We substitute a real — if much simpler — lossy intra
 * codec: YCoCg color transform with 2x2-subsampled (4:2:0) chroma, 8x8
 * block Haar transform, dead-zone quantisation driven by a quality
 * factor, zigzag scan, zero run-length coding, and varint entropy
 * coding. It produces genuinely content-dependent byte sizes (flat
 * far-BE frames compress harder than busy whole-BE frames), which is
 * the property the caching and bandwidth experiments rely on. Every
 * frame is coded on its own: clients fetch, cache and reuse frames
 * one at a time and out of order.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "image/image.hh"

namespace coterie::image {

/** Codec tuning parameters. */
struct CodecParams
{
    /**
     * Quality in [1, 100]; higher keeps more coefficients. 60 roughly
     * corresponds to x264 CRF 25 in perceived quality (SSIM ~0.95+ on
     * our rendered content).
     */
    int quality = 60;
};

/** An encoded frame: an opaque byte stream plus its dimensions. */
struct EncodedFrame
{
    int width = 0;
    int height = 0;
    CodecParams params;
    std::vector<std::uint8_t> bytes;

    std::size_t sizeBytes() const { return bytes.size(); }
};

/**
 * Encode an RGB image: its Y plane, then its Co and Cg planes at
 * ceil(w/2) x ceil(h/2). Block rows are coded in parallel on the shared
 * pool; the bytes do not depend on the worker count.
 */
EncodedFrame encode(const Image &frame, const CodecParams &params = {});

/** Decode back to RGB; panics on a corrupt stream. */
Image decode(const EncodedFrame &encoded);

} // namespace coterie::image

