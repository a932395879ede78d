/**
 * @file
 * RGB8 frame buffer plus the small set of pixel operations the
 * similarity experiments need (luma extraction, diffing, PPM output).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace coterie::image {

/** An 8-bit RGB color. */
struct Rgb
{
    std::uint8_t r = 0;
    std::uint8_t g = 0;
    std::uint8_t b = 0;

    constexpr bool operator==(const Rgb &) const = default;
};

/** Rec. 601 luma of a color, in [0, 255]. */
double luma(Rgb c);

/**
 * A dense row-major RGB8 image. This is the "frame" type flowing through
 * the renderer, the codec, and the SSIM metric.
 */
class Image
{
  public:
    Image() = default;
    Image(int width, int height, Rgb fill = {});

    int width() const { return width_; }
    int height() const { return height_; }
    bool empty() const { return pixels_.empty(); }
    std::size_t pixelCount() const { return pixels_.size(); }

    Rgb &at(int x, int y);
    const Rgb &at(int x, int y) const;

    const std::vector<Rgb> &pixels() const { return pixels_; }
    std::vector<Rgb> &pixels() { return pixels_; }

    /** Per-pixel luma plane as doubles (SSIM operates on this). */
    std::vector<double> lumaPlane() const;

    /** Mean absolute per-channel difference against another image. */
    double meanAbsDiff(const Image &other) const;

    /** Write a binary PPM (P6) file; returns false on IO failure. */
    bool writePpm(const std::string &path) const;

    bool operator==(const Image &) const = default;

  private:
    int width_ = 0;
    int height_ = 0;
    std::vector<Rgb> pixels_;
};

} // namespace coterie::image

