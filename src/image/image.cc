#include "image/image.hh"

#include <cmath>
#include <cstdio>

#include "support/logging.hh"

namespace coterie::image {

double
luma(Rgb c)
{
    return 0.299 * c.r + 0.587 * c.g + 0.114 * c.b;
}

Image::Image(int width, int height, Rgb fill)
    : width_(width), height_(height),
      pixels_(static_cast<std::size_t>(width) * height, fill)
{
    COTERIE_ASSERT(width >= 0 && height >= 0, "negative image dims");
}

Rgb &
Image::at(int x, int y)
{
    COTERIE_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_,
                   "pixel out of range: ", x, ",", y);
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
}

const Rgb &
Image::at(int x, int y) const
{
    COTERIE_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_,
                   "pixel out of range: ", x, ",", y);
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
}

std::vector<double>
Image::lumaPlane() const
{
    std::vector<double> out;
    out.reserve(pixels_.size());
    for (const Rgb &p : pixels_)
        out.push_back(luma(p));
    return out;
}

double
Image::meanAbsDiff(const Image &other) const
{
    COTERIE_ASSERT(width_ == other.width_ && height_ == other.height_,
                   "meanAbsDiff on mismatched sizes");
    if (pixels_.empty())
        return 0.0;
    double acc = 0.0;
    for (std::size_t i = 0; i < pixels_.size(); ++i) {
        acc += std::abs(int(pixels_[i].r) - int(other.pixels_[i].r));
        acc += std::abs(int(pixels_[i].g) - int(other.pixels_[i].g));
        acc += std::abs(int(pixels_[i].b) - int(other.pixels_[i].b));
    }
    return acc / (3.0 * static_cast<double>(pixels_.size()));
}

bool
Image::writePpm(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P6\n%d %d\n255\n", width_, height_);
    const bool ok = std::fwrite(pixels_.data(), sizeof(Rgb), pixels_.size(),
                                f) == pixels_.size();
    std::fclose(f);
    return ok;
}

} // namespace coterie::image
