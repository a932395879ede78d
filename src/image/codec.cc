#include "image/codec.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/simd.hh"

namespace coterie::image {
namespace {

using support::simd::F64x4;

constexpr int kBlock = 8;
constexpr int kCoeffs = kBlock * kBlock;

/** Zigzag scan order for an 8x8 block. */
const std::array<int, 64> &
zigzagOrder()
{
    static const std::array<int, 64> order = [] {
        std::array<int, 64> o{};
        int idx = 0;
        for (int s = 0; s < 2 * kBlock - 1; ++s) {
            if (s % 2 == 0) {
                for (int y = std::min(s, kBlock - 1);
                     y >= std::max(0, s - kBlock + 1); --y)
                    o[idx++] = y * kBlock + (s - y);
            } else {
                for (int y = std::max(0, s - kBlock + 1);
                     y <= std::min(s, kBlock - 1); ++y)
                    o[idx++] = y * kBlock + (s - y);
            }
        }
        return o;
    }();
    return order;
}

/** In-place 1D Haar lifting over 8 samples (3 levels). */
void
haar1d(double *v, int stride, bool inverse)
{
    double tmp[kBlock];
    if (!inverse) {
        int len = kBlock;
        while (len > 1) {
            const int half = len / 2;
            for (int i = 0; i < half; ++i) {
                const double a = v[(2 * i) * stride];
                const double b = v[(2 * i + 1) * stride];
                tmp[i] = (a + b) * 0.5;
                tmp[half + i] = (a - b) * 0.5;
            }
            for (int i = 0; i < len; ++i)
                v[i * stride] = tmp[i];
            len = half;
        }
    } else {
        int len = 2;
        while (len <= kBlock) {
            const int half = len / 2;
            for (int i = 0; i < half; ++i) {
                const double avg = v[i * stride];
                const double diff = v[(half + i) * stride];
                tmp[2 * i] = avg + diff;
                tmp[2 * i + 1] = avg - diff;
            }
            for (int i = 0; i < len; ++i)
                v[i * stride] = tmp[i];
            len *= 2;
        }
    }
}

/**
 * Column pass of the 2D Haar: all eight columns lifted at once, two
 * 4-lane vectors per block row (a column step is a row-wise op on the
 * row-major block). The lane arithmetic is (a ± b) * 0.5 / avg ± diff
 * — no fusable multiply-add shape — so the result is bit-identical to
 * per-column `haar1d` at any vector width or dispatch clone.
 */
COTERIE_SIMD_CLONES void
haarColumns(double *block, bool inverse)
{
    double tmp[kBlock * kBlock];
    const F64x4 half = F64x4::splat(0.5);
    const auto row = [&](double *base, int i) { return base + i * kBlock; };
    if (!inverse) {
        int len = kBlock;
        while (len > 1) {
            const int h = len / 2;
            for (int i = 0; i < h; ++i) {
                const double *ra = row(block, 2 * i);
                const double *rb = row(block, 2 * i + 1);
                for (int c = 0; c < kBlock; c += 4) {
                    const F64x4 a = F64x4::load(ra + c);
                    const F64x4 b = F64x4::load(rb + c);
                    ((a + b) * half).store(row(tmp, i) + c);
                    ((a - b) * half).store(row(tmp, h + i) + c);
                }
            }
            std::memcpy(block, tmp,
                        sizeof(double) * static_cast<std::size_t>(len) *
                            kBlock);
            len = h;
        }
    } else {
        int len = 2;
        while (len <= kBlock) {
            const int h = len / 2;
            for (int i = 0; i < h; ++i) {
                const double *ravg = row(block, i);
                const double *rdiff = row(block, h + i);
                for (int c = 0; c < kBlock; c += 4) {
                    const F64x4 avg = F64x4::load(ravg + c);
                    const F64x4 diff = F64x4::load(rdiff + c);
                    (avg + diff).store(row(tmp, 2 * i) + c);
                    (avg - diff).store(row(tmp, 2 * i + 1) + c);
                }
            }
            std::memcpy(block, tmp,
                        sizeof(double) * static_cast<std::size_t>(len) *
                            kBlock);
            len *= 2;
        }
    }
}

/** 2D Haar over an 8x8 block stored row-major. */
void
haar2d(double *block, bool inverse)
{
    if (!inverse) {
        for (int y = 0; y < kBlock; ++y)
            haar1d(block + y * kBlock, 1, false);
        haarColumns(block, false);
    } else {
        haarColumns(block, true);
        for (int y = 0; y < kBlock; ++y)
            haar1d(block + y * kBlock, 1, true);
    }
}

/** Quantisation step for coefficient index (frequency-weighted). */
double
quantStep(int zigzag_index, int quality, bool chroma)
{
    const double q = std::clamp(quality, 1, 100);
    // Map quality 1..100 to a base step ~ [24 .. 0.8].
    const double base = 80.0 / (q + 2.0) * (chroma ? 1.8 : 1.0);
    // Higher frequencies quantised more coarsely.
    const double freq = 1.0 + static_cast<double>(zigzag_index) * 0.25;
    return base * freq;
}

/** quantStep of every zigzag slot of one plane, computed once. */
using QuantTable = std::array<double, kCoeffs>;

QuantTable
quantTable(int quality, bool chroma)
{
    QuantTable steps{};
    for (int i = 0; i < kCoeffs; ++i)
        steps[i] = quantStep(i, quality, chroma);
    return steps;
}

/**
 * std::llround's half-away-from-zero rounding, inline: truncate, then
 * compare the remainder against ±0.5. The remainder v - t is exact
 * while |v| < 2^52, so the result equals llround's bit for bit there;
 * quantised coefficients stay below ~700.
 */
std::int64_t
roundHalfAway(double v)
{
    const auto t = static_cast<std::int64_t>(v);
    const double rem = v - static_cast<double>(t);
    return t + (rem >= 0.5 ? 1 : 0) - (rem <= -0.5 ? 1 : 0);
}

/** Append an unsigned varint (LEB128). */
void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/** Read an unsigned varint; one longer than 10 bytes (64 bits) is
 *  corrupt. */
std::uint64_t
getVarint(const std::vector<std::uint8_t> &in, std::size_t &pos)
{
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
        COTERIE_ASSERT(pos < in.size(), "varint past end of stream");
        COTERIE_ASSERT(shift < 64, "varint longer than 10 bytes");
        const std::uint8_t byte = in[pos++];
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            break;
        shift += 7;
    }
    return v;
}

/** ZigZag-map a signed value to unsigned for varint coding. */
std::uint64_t
zz(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzz(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** One pixel in YCoCg (lossy in integer domain; we work in doubles). */
struct Ycocg
{
    double y, co, cg;
};

Ycocg
toYcocg(Rgb px)
{
    const double r = px.r, g = px.g, b = px.b;
    const double co = r - b;
    const double tmp = b + co * 0.5;
    const double cg = g - tmp;
    return {tmp + cg * 0.5, co, cg};
}

std::uint8_t
clamp255(double v)
{
    return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

/** The inverse of toYcocg, rounded and clamped to 8 bits. */
Rgb
toRgb(double y, double co, double cg)
{
    const double tmp = y - cg * 0.5;
    const double g = cg + tmp;
    const double b = tmp - co * 0.5;
    const double r = b + co;
    return Rgb{clamp255(r + 0.5), clamp255(g + 0.5), clamp255(b + 0.5)};
}

/**
 * Mean of the in-bounds samples of the 2x2 cell at (x, y) of a w x h
 * source, summed in (dy, dx) order: one subsampled chroma sample.
 */
template <typename Sample>
double
mean2x2(const Sample &sample, int x, int y, int w, int h)
{
    double sum = 0.0;
    int n = 0;
    for (int dy = 0; dy < 2; ++dy) {
        for (int dx = 0; dx < 2; ++dx) {
            const int sx = 2 * x + dx;
            const int sy = 2 * y + dy;
            if (sx < w && sy < h) {
                sum += sample(sx, sy);
                ++n;
            }
        }
    }
    return sum / n;
}

/** One block row's stream, its first block's DC delta left out. */
struct RowRun
{
    std::vector<std::uint8_t> bytes;
    std::int64_t firstDc = 0;
    std::int64_t lastDc = 0;
};

/**
 * Code the block row at @p by of a w x h plane whose sample (x, y) is
 * @p sample(x, y): per 8x8 block (edge samples clamped), Haar,
 * quantise, zigzag, then (runOfZeros, value) pairs with an end-of-block
 * marker. DC coefficients are delta-coded along the row; the first
 * block's delta depends on the previous row, so the splice writes it.
 */
template <typename Sample>
void
encodeRow(const Sample &sample, int w, int h, int by,
          const QuantTable &steps, RowRun &run)
{
    const auto &order = zigzagOrder();
    int sy[kBlock];
    for (int y = 0; y < kBlock; ++y)
        sy[y] = std::min(by + y, h - 1);
    for (int bx = 0; bx < w; bx += kBlock) {
        double block[kCoeffs];
        for (int y = 0; y < kBlock; ++y)
            for (int x = 0; x < kBlock; ++x)
                block[y * kBlock + x] =
                    sample(std::min(bx + x, w - 1), sy[y]);
        haar2d(block, false);

        std::int64_t q[kCoeffs];
        for (int i = 0; i < kCoeffs; ++i)
            q[i] = roundHalfAway(block[order[i]] / steps[i]);

        // DC delta.
        if (bx == 0)
            run.firstDc = q[0];
        else
            putVarint(run.bytes, zz(q[0] - run.lastDc));
        run.lastDc = q[0];

        // AC: run-length of zeros then value; 0-run 63 acts as EOB.
        int zeros = 0;
        for (int i = 1; i < kCoeffs; ++i) {
            if (q[i] == 0) {
                ++zeros;
                continue;
            }
            putVarint(run.bytes, static_cast<std::uint64_t>(zeros));
            putVarint(run.bytes, zz(q[i]));
            zeros = 0;
        }
        putVarint(run.bytes, 63); // EOB
    }
}

/**
 * Encode a w x h plane read through @p sample: its block rows are
 * chunks of one parallelFor (grain 1, so chunk boundaries never depend
 * on the worker count), each coded into its own run; the serial splice
 * then writes each row's first DC delta against the previous row's
 * last DC and appends the runs in row order. The bytes are those of a
 * serial block-by-block pass over the plane.
 */
template <typename Sample>
void
encodeRows(const Sample &sample, int w, int h, int quality, bool chroma,
           std::vector<std::uint8_t> &out)
{
    const QuantTable steps = quantTable(quality, chroma);
    std::vector<RowRun> runs(static_cast<std::size_t>((h + kBlock - 1) /
                                                      kBlock));
    support::parallelFor(
        0, static_cast<std::int64_t>(runs.size()), 1,
        [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t r = b; r < e; ++r)
                encodeRow(sample, w, h, static_cast<int>(r) * kBlock,
                          steps, runs[static_cast<std::size_t>(r)]);
        });
    std::int64_t prev_dc = 0;
    for (const RowRun &run : runs) {
        putVarint(out, zz(run.firstDc - prev_dc));
        out.insert(out.end(), run.bytes.begin(), run.bytes.end());
        prev_dc = run.lastDc;
    }
}

/**
 * Decode a w x h plane from the stream at @p pos (advancing pos),
 * handing each in-bounds sample to @p store(x, y, value).
 */
template <typename Store>
void
decodeRows(const std::vector<std::uint8_t> &in, std::size_t &pos, int w,
           int h, int quality, bool chroma, const Store &store)
{
    constexpr std::int64_t kMinDc = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMaxDc = std::numeric_limits<std::int64_t>::max();
    const auto &order = zigzagOrder();
    const QuantTable steps = quantTable(quality, chroma);
    std::int64_t prev_dc = 0;
    for (int by = 0; by < h; by += kBlock) {
        for (int bx = 0; bx < w; bx += kBlock) {
            std::int64_t q[kCoeffs] = {};
            const std::int64_t dc_delta = unzz(getVarint(in, pos));
            COTERIE_ASSERT(dc_delta < 0 ? prev_dc >= kMinDc - dc_delta
                                        : prev_dc <= kMaxDc - dc_delta,
                           "corrupt DC delta");
            prev_dc += dc_delta;
            q[0] = prev_dc;
            // Read (run, value) pairs until the end-of-block marker;
            // the encoder always emits it, even after a value in the
            // final coefficient slot. A run is checked before it moves
            // i, so i stays within [1, 63] at every write.
            int i = 1;
            while (true) {
                const std::uint64_t run = getVarint(in, pos);
                if (run == 63)
                    break;
                COTERIE_ASSERT(run < static_cast<std::uint64_t>(kCoeffs - i),
                               "corrupt AC run");
                i += static_cast<int>(run);
                q[i] = unzz(getVarint(in, pos));
                ++i;
            }

            double block[kCoeffs];
            for (int j = 0; j < kCoeffs; ++j)
                block[order[j]] = static_cast<double>(q[j]) * steps[j];
            haar2d(block, true);

            for (int y = 0; y < kBlock && by + y < h; ++y)
                for (int x = 0; x < kBlock && bx + x < w; ++x)
                    store(bx + x, by + y, block[y * kBlock + x]);
        }
    }
}

} // namespace

EncodedFrame
encode(const Image &frame, const CodecParams &params)
{
    COTERIE_ASSERT(!frame.empty(), "encoding empty frame");
    COTERIE_SPAN("codec.encode", "image");
    COTERIE_TIMER_SCOPE("codec.encode_ms");
    COTERIE_COUNT("codec.encodes");
    const int w = frame.width();
    const int h = frame.height();
    EncodedFrame out;
    out.width = w;
    out.height = h;
    out.params = params;
    // Every plane is coded straight from the RGB pixels; no full-frame
    // plane is allocated.
    const Rgb *px = frame.pixels().data();
    const auto at = [px, w](int x, int y) {
        return toYcocg(px[static_cast<std::size_t>(y) * w + x]);
    };
    const auto co = [&](int x, int y) { return at(x, y).co; };
    const auto cg = [&](int x, int y) { return at(x, y).cg; };
    const int sw = (w + 1) / 2;
    const int sh = (h + 1) / 2;
    encodeRows([&](int x, int y) { return at(x, y).y; }, w, h,
               params.quality, false, out.bytes);
    encodeRows([&](int x, int y) { return mean2x2(co, x, y, w, h); }, sw,
               sh, params.quality, true, out.bytes);
    encodeRows([&](int x, int y) { return mean2x2(cg, x, y, w, h); }, sw,
               sh, params.quality, true, out.bytes);
    COTERIE_COUNT_N("codec.encoded_bytes", out.bytes.size());
    return out;
}

Image
decode(const EncodedFrame &encoded)
{
    const int w = encoded.width;
    const int h = encoded.height;
    COTERIE_ASSERT(w > 0 && h > 0, "decoding empty frame");
    COTERIE_SPAN("codec.decode", "image");
    COTERIE_TIMER_SCOPE("codec.decode_ms");
    COTERIE_COUNT("codec.decodes");
    const std::vector<std::uint8_t> &in = encoded.bytes;
    const int quality = encoded.params.quality;
    const int sw = (w + 1) / 2;
    const int sh = (h + 1) / 2;
    std::size_t pos = 0;
    std::vector<double> y_plane(static_cast<std::size_t>(w) * h);
    decodeRows(in, pos, w, h, quality, false, [&](int x, int y, double v) {
        y_plane[static_cast<std::size_t>(y) * w + x] = v;
    });
    std::vector<double> co_plane(static_cast<std::size_t>(sw) * sh);
    decodeRows(in, pos, sw, sh, quality, true, [&](int x, int y, double v) {
        co_plane[static_cast<std::size_t>(y) * sw + x] = v;
    });
    // The Cg plane is never stored: each decoded sample, with its cell's
    // Co, converts the in-bounds pixels of its 2x2 cell straight to RGB.
    Image out(w, h);
    Rgb *px = out.pixels().data();
    const auto cell = [&](int cx, int cy, double cg) {
        const double co = co_plane[static_cast<std::size_t>(cy) * sw + cx];
        for (int y = 2 * cy; y < std::min(2 * cy + 2, h); ++y) {
            for (int x = 2 * cx; x < std::min(2 * cx + 2, w); ++x) {
                const std::size_t i = static_cast<std::size_t>(y) * w + x;
                px[i] = toRgb(y_plane[i], co, cg);
            }
        }
    };
    decodeRows(in, pos, sw, sh, quality, true, cell);
    COTERIE_ASSERT(pos == in.size(), "trailing bytes after the last plane");
    return out;
}

} // namespace coterie::image
