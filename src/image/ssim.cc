#include "image/ssim.hh"

#include <memory>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/simd.hh"

namespace coterie::image {

namespace {

/** Bands per pool chunk in the tiled kernel's window stage. Fixed
 *  (thread-count-independent) so the chunk grid, and with it the
 *  result, is the same at any COTERIE_THREADS value. */
constexpr std::int64_t kBandsPerChunk = 8;

/** Row-groups per pool chunk in the tiled kernel's build stage. */
constexpr std::int64_t kGroupsPerChunk = 8;

// Vector lanes and runtime dispatch come from support/simd.hh: the
// vector path follows the COTERIE_SIMD CMake option, and
// COTERIE_SIMD_CLONES emits AVX-512/AVX2 clones of the hot kernel
// (skipped under sanitizers — the ifunc resolver runs before their
// runtimes initialise). Results are thread-count deterministic either
// way; vector-vs-scalar builds agree to the kernel's documented 1e-12
// envelope rather than bit-exactly (ssim_test pins both properties).
#ifdef COTERIE_SIMD_VECTOR_EXT
// The wide-vector helpers are internal and always inlined; the ABI of
// their V4d return type is irrelevant.
#pragma GCC diagnostic ignored "-Wpsabi"
using V4d = support::simd::V4dRaw;

inline V4d
loadu4(const double *p)
{
    V4d v;
    __builtin_memcpy(&v, p, sizeof(v));
    return v;
}
#endif

double
ssimWindow(double sa, double sb, double saa, double sbb, double sab,
           double inv_n, double C1, double C2)
{
    const double ma = sa * inv_n;
    const double mb = sb * inv_n;
    const double va = saa * inv_n - ma * ma;
    const double vb = sbb * inv_n - mb * mb;
    const double cov = sab * inv_n - ma * mb;
    return ((2 * ma * mb + C1) * (2 * cov + C2)) /
           ((ma * ma + mb * mb + C1) * (va + vb + C2));
}

/** Moments tracked per tile: Σa, Σb, Σa², Σb², Σab. */
constexpr int kMoments = 5;

/**
 * One row-group of the tiled kernel's moment table: for each
 * column-group j, the five moment sums over the stride x stride pixel
 * tile whose top-left corner is (j*stride, g*stride). Every pixel is
 * loaded exactly once. The default stride 4 runs on 4-lane vectors
 * where the compiler supports them; every other stride, and builds
 * without vector extensions, run the scalar loop.
 */
COTERIE_SIMD_CLONES void
buildTileRow(const double *a, const double *b, int width, int g,
             int xGroups, int stride, double *tg)
{
    const double *baseA = a + static_cast<std::size_t>(g) * stride * width;
    const double *baseB = b + static_cast<std::size_t>(g) * stride * width;
#ifdef COTERIE_SIMD_VECTOR_EXT
    if (stride == 4) {
        // The default geometry (8x8 windows, stride 4) fully unrolled:
        // one 4-lane vector per tile row, no inner-loop branches.
        const double *ra0 = baseA, *ra1 = baseA + width,
                     *ra2 = baseA + 2 * static_cast<std::size_t>(width),
                     *ra3 = baseA + 3 * static_cast<std::size_t>(width);
        const double *rb0 = baseB, *rb1 = baseB + width,
                     *rb2 = baseB + 2 * static_cast<std::size_t>(width),
                     *rb3 = baseB + 3 * static_cast<std::size_t>(width);
        for (int j = 0; j < xGroups; ++j) {
            const int x0 = j * 4;
            const V4d pa0 = loadu4(ra0 + x0), pb0 = loadu4(rb0 + x0);
            const V4d pa1 = loadu4(ra1 + x0), pb1 = loadu4(rb1 + x0);
            const V4d pa2 = loadu4(ra2 + x0), pb2 = loadu4(rb2 + x0);
            const V4d pa3 = loadu4(ra3 + x0), pb3 = loadu4(rb3 + x0);
            const V4d sa = (pa0 + pa1) + (pa2 + pa3);
            const V4d sb = (pb0 + pb1) + (pb2 + pb3);
            const V4d saa = (pa0 * pa0 + pa1 * pa1) + (pa2 * pa2 + pa3 * pa3);
            const V4d sbb = (pb0 * pb0 + pb1 * pb1) + (pb2 * pb2 + pb3 * pb3);
            const V4d sab = (pa0 * pb0 + pa1 * pb1) + (pa2 * pb2 + pa3 * pb3);
            double *t = tg + static_cast<std::size_t>(j) * kMoments;
            t[0] = sa[0] + sa[1] + sa[2] + sa[3];
            t[1] = sb[0] + sb[1] + sb[2] + sb[3];
            t[2] = saa[0] + saa[1] + saa[2] + saa[3];
            t[3] = sbb[0] + sbb[1] + sbb[2] + sbb[3];
            t[4] = sab[0] + sab[1] + sab[2] + sab[3];
        }
        return;
    }
#endif
    for (int j = 0; j < xGroups; ++j) {
        const int x0 = j * stride;
        double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
        for (int r = 0; r < stride; ++r) {
            const double *ra = baseA + static_cast<std::size_t>(r) * width + x0;
            const double *rb = baseB + static_cast<std::size_t>(r) * width + x0;
            for (int c = 0; c < stride; ++c) {
                const double pa = ra[c], pb = rb[c];
                sa += pa;
                sb += pb;
                saa += pa * pa;
                sbb += pb * pb;
                sab += pa * pb;
            }
        }
        double *t = tg + static_cast<std::size_t>(j) * kMoments;
        t[0] = sa;
        t[1] = sb;
        t[2] = saa;
        t[3] = sbb;
        t[4] = sab;
    }
}

/**
 * Tiled kernel for window grids whose stride divides the window size:
 * windows start on stride-aligned coordinates, so a window's moments
 * are the sum of q*q tile moments (q = win/stride). Each pixel is
 * touched once (vs (win/stride)^2 times in the naive pass). Both
 * stages parallelise over the shared pool with fixed chunk grids and
 * per-slot accumulation, so the result is identical at any thread
 * count.
 */
double
ssimLumaTiled(const std::vector<double> &a, const std::vector<double> &b,
              int width, int height, int win, int stride, double C1,
              double C2, int threads)
{
    const double inv_n = 1.0 / (static_cast<double>(win) * win);
    const int q = win / stride;
    const std::int64_t bands = (height - win) / stride + 1;
    const int xCount = (width - win) / stride + 1;
    const int xGroups = xCount - 1 + q;
    const std::int64_t rowGroups = bands - 1 + q;

    // Stage 1: for each row-group, tile moments (chunk-local scratch —
    // a tile is only ever combined within its own row-group) reduced
    // straight into horizontal window sums: H[g][i] = moments of the
    // win-wide, stride-tall slab at (i*stride, g*stride). Chunks write
    // disjoint rows of H and every slot is written, so the table skips
    // the zero-fill and the result is chunking-independent.
    const auto H = std::make_unique_for_overwrite<double[]>(
        static_cast<std::size_t>(rowGroups) * xCount * kMoments);
    support::parallelFor(
        0, rowGroups, kGroupsPerChunk,
        [&](std::int64_t gBegin, std::int64_t gEnd) {
            std::vector<double> tileRow(
                static_cast<std::size_t>(xGroups) * kMoments);
            for (std::int64_t g = gBegin; g < gEnd; ++g) {
                buildTileRow(a.data(), b.data(), width,
                             static_cast<int>(g), xGroups, stride,
                             tileRow.data());
                double *h =
                    &H[static_cast<std::size_t>(g) * xCount * kMoments];
                for (int i = 0; i < xCount; ++i) {
                    double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
                    for (int j = 0; j < q; ++j) {
                        const double *t =
                            &tileRow[static_cast<std::size_t>(i + j) *
                                     kMoments];
                        sa += t[0];
                        sb += t[1];
                        saa += t[2];
                        sbb += t[3];
                        sab += t[4];
                    }
                    double *hi = h + static_cast<std::size_t>(i) * kMoments;
                    hi[0] = sa;
                    hi[1] = sb;
                    hi[2] = saa;
                    hi[3] = sbb;
                    hi[4] = sab;
                }
            }
        },
        threads);

    // Stage 2: a window is q vertically adjacent slabs; one
    // accumulation slot per band (always written), ordered reduction.
    const auto bandAcc = std::make_unique_for_overwrite<double[]>(
        static_cast<std::size_t>(bands));
    support::parallelFor(
        0, bands, kBandsPerChunk,
        [&](std::int64_t bandBegin, std::int64_t bandEnd) {
            for (std::int64_t band = bandBegin; band < bandEnd; ++band) {
                double acc = 0.0;
                for (int i = 0; i < xCount; ++i) {
                    double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
                    for (int k = 0; k < q; ++k) {
                        const double *hi =
                            &H[(static_cast<std::size_t>(band + k) *
                                    xCount +
                                static_cast<std::size_t>(i)) *
                               kMoments];
                        sa += hi[0];
                        sb += hi[1];
                        saa += hi[2];
                        sbb += hi[3];
                        sab += hi[4];
                    }
                    acc += ssimWindow(sa, sb, saa, sbb, sab, inv_n, C1,
                                      C2);
                }
                bandAcc[static_cast<std::size_t>(band)] = acc;
            }
        },
        threads);

    double total = 0.0;
    for (std::int64_t band = 0; band < bands; ++band)
        total += bandAcc[static_cast<std::size_t>(band)];
    const double windows =
        static_cast<double>(bands) * static_cast<double>(xCount);
    return windows > 0 ? total / windows : 1.0;
}

} // namespace

double
ssimLumaReference(const std::vector<double> &a,
                  const std::vector<double> &b, int width, int height,
                  const SsimParams &params)
{
    COTERIE_ASSERT(a.size() == b.size() &&
                   a.size() ==
                       static_cast<std::size_t>(width) * height,
                   "ssim plane size mismatch");
    const int win = params.windowSize;
    const int stride = params.stride > 0 ? params.stride : win;
    const double c1 = params.k1 * params.dynamicRange;
    const double c2 = params.k2 * params.dynamicRange;
    const double C1 = c1 * c1;
    const double C2 = c2 * c2;

    if (width < win || height < win) {
        // Degenerate: single window over the whole image.
        double ma = 0, mb = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            ma += a[i];
            mb += b[i];
        }
        const double n = static_cast<double>(a.size());
        ma /= n; mb /= n;
        double va = 0, vb = 0, cov = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            va += (a[i] - ma) * (a[i] - ma);
            vb += (b[i] - mb) * (b[i] - mb);
            cov += (a[i] - ma) * (b[i] - mb);
        }
        va /= n; vb /= n; cov /= n;
        return ((2 * ma * mb + C1) * (2 * cov + C2)) /
               ((ma * ma + mb * mb + C1) * (va + vb + C2));
    }

    double acc = 0.0;
    std::size_t windows = 0;
    const double inv_n = 1.0 / (static_cast<double>(win) * win);
    for (int y0 = 0; y0 + win <= height; y0 += stride) {
        for (int x0 = 0; x0 + win <= width; x0 += stride) {
            double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
            for (int y = y0; y < y0 + win; ++y) {
                const double *ra = &a[static_cast<std::size_t>(y) * width];
                const double *rb = &b[static_cast<std::size_t>(y) * width];
                for (int x = x0; x < x0 + win; ++x) {
                    const double pa = ra[x];
                    const double pb = rb[x];
                    sa += pa; sb += pb;
                    saa += pa * pa; sbb += pb * pb;
                    sab += pa * pb;
                }
            }
            acc += ssimWindow(sa, sb, saa, sbb, sab, inv_n, C1, C2);
            ++windows;
        }
    }
    return windows ? acc / static_cast<double>(windows) : 1.0;
}

double
ssimLuma(const std::vector<double> &a, const std::vector<double> &b,
         int width, int height, const SsimParams &params)
{
    COTERIE_ASSERT(a.size() == b.size() &&
                   a.size() ==
                       static_cast<std::size_t>(width) * height,
                   "ssim plane size mismatch");
    COTERIE_SPAN("image.ssim", "image");
    COTERIE_TIMER_SCOPE("image.ssim_ms");
    const int win = params.windowSize;
    const int stride = params.stride > 0 ? params.stride : win;
    // The tiled kernel takes stride-aligned overlapping grids with a
    // modest overlap factor (q = win/stride <= 4: each pixel is read
    // once and a window costs q*q small loads). Everything else —
    // disjoint windows (no overlap to exploit; bit-identical to the
    // historical implementation), degenerate images, and the
    // overlapping grids no caller uses — runs the naive pass.
    if (width < win || height < win || stride >= win ||
        win % stride != 0 || win / stride > 4) {
        COTERIE_COUNT("image.ssim_reference");
        return ssimLumaReference(a, b, width, height, params);
    }

    const double c1 = params.k1 * params.dynamicRange;
    const double c2 = params.k2 * params.dynamicRange;
    COTERIE_COUNT("image.ssim_tiled");
    return ssimLumaTiled(a, b, width, height, win, stride, c1 * c1,
                         c2 * c2, params.threads);
}

double
ssim(const Image &a, const Image &b, const SsimParams &params)
{
    COTERIE_ASSERT(a.width() == b.width() && a.height() == b.height(),
                   "ssim size mismatch: ", a.width(), "x", a.height(),
                   " vs ", b.width(), "x", b.height());
    return ssimLuma(a.lumaPlane(), b.lumaPlane(), a.width(), a.height(),
                    params);
}

} // namespace coterie::image
