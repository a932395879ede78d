/**
 * @file
 * Internal plane-level coding shared by the still-frame codec
 * (codec.cc) and the video codec (video.cc): the one block-row coder
 * (Haar transform, quantisation, zigzag RLE/varint entropy coding), the
 * one Y/Co/Cg plane sequence in both directions, YCoCg conversion and
 * chroma subsampling. Not part of the public API.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "image/codec.hh"
#include "image/image.hh"

namespace coterie::image::detail {

/** The three YCoCg planes of a frame, chroma at full resolution. */
struct Planes
{
    std::vector<double> y, co, cg;
};

/**
 * Encode @p frame's Y, Co and Cg planes (chroma subsampled if
 * configured) straight from its RGB pixels: each plane's block rows
 * are coded in parallel on the shared pool, and no full-frame plane is
 * allocated.
 */
void encodeRgb(const Image &frame, const CodecParams &params,
               std::vector<std::uint8_t> &out);

/** Encode one plane into the byte stream (8x8 Haar blocks). */
void encodePlane(const std::vector<double> &plane, int w, int h,
                 int quality, bool chroma, std::vector<std::uint8_t> &out);

/** Decode one plane from the stream at @p pos (advances pos). */
void decodePlane(const std::vector<std::uint8_t> &in, std::size_t &pos,
                 int w, int h, int quality, bool chroma,
                 std::vector<double> &plane);

/**
 * Decode a frame's Y, Co and Cg planes at full resolution (a
 * subsampled chroma sample fills its 2x2 cell); panics unless the
 * stream ends right after the last plane.
 */
Planes decodePlanes(const std::vector<std::uint8_t> &bytes, int w, int h,
                    const CodecParams &params);

/** RGB <-> YCoCg plane conversion. */
Planes rgbToYcocg(const Image &img);
Image ycocgToRgb(const Planes &planes, int w, int h);

/** 2x chroma subsampling: each sample the mean of its 2x2 cell. */
std::vector<double> subsample2(const std::vector<double> &plane, int w,
                               int h, int &sw, int &sh);

} // namespace coterie::image::detail
