/**
 * @file
 * Tests for the Image frame buffer: pixel access, luma, diffing, and
 * PPM output.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "image/image.hh"

namespace coterie::image {
namespace {

TEST(Image, ConstructionAndFill)
{
    Image img(4, 3, Rgb{10, 20, 30});
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.pixelCount(), 12u);
    EXPECT_EQ(img.at(3, 2), (Rgb{10, 20, 30}));
    EXPECT_TRUE(Image().empty());
}

TEST(Image, PixelWrites)
{
    Image img(2, 2);
    img.at(1, 0) = Rgb{255, 0, 0};
    EXPECT_EQ(img.at(1, 0), (Rgb{255, 0, 0}));
    EXPECT_EQ(img.at(0, 0), Rgb{});
}

TEST(Image, LumaWeightsSumToOne)
{
    EXPECT_NEAR(luma(Rgb{255, 255, 255}), 255.0, 1e-9);
    EXPECT_DOUBLE_EQ(luma(Rgb{0, 0, 0}), 0.0);
    EXPECT_GT(luma(Rgb{0, 255, 0}), luma(Rgb{255, 0, 0}));
    EXPECT_GT(luma(Rgb{255, 0, 0}), luma(Rgb{0, 0, 255}));
}

TEST(Image, LumaPlaneMatchesPerPixelLuma)
{
    Image img(2, 1);
    img.at(0, 0) = Rgb{100, 50, 25};
    img.at(1, 0) = Rgb{0, 255, 0};
    const auto plane = img.lumaPlane();
    ASSERT_EQ(plane.size(), 2u);
    EXPECT_DOUBLE_EQ(plane[0], luma(img.at(0, 0)));
    EXPECT_DOUBLE_EQ(plane[1], luma(img.at(1, 0)));
}

TEST(Image, MeanAbsDiff)
{
    Image a(2, 1, Rgb{10, 10, 10});
    Image b(2, 1, Rgb{20, 10, 10});
    EXPECT_DOUBLE_EQ(a.meanAbsDiff(a), 0.0);
    EXPECT_NEAR(a.meanAbsDiff(b), 10.0 / 3.0, 1e-12);
}

TEST(Image, WritePpmProducesValidHeaderAndSize)
{
    Image img(3, 2, Rgb{1, 2, 3});
    const std::string path = testing::TempDir() + "/coterie_img.ppm";
    ASSERT_TRUE(img.writePpm(path));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char magic[3] = {};
    int w = 0, h = 0, maxval = 0;
    ASSERT_EQ(std::fscanf(f, "%2s %d %d %d", magic, &w, &h, &maxval), 4);
    EXPECT_STREQ(magic, "P6");
    EXPECT_EQ(w, 3);
    EXPECT_EQ(h, 2);
    EXPECT_EQ(maxval, 255);
    std::fclose(f);
    std::remove(path.c_str());
}

TEST(Image, WritePpmFailsOnBadPath)
{
    Image img(1, 1);
    EXPECT_FALSE(img.writePpm("/nonexistent_dir_xyz/file.ppm"));
}

} // namespace
} // namespace coterie::image
