/**
 * @file
 * Structural Similarity (SSIM) — Wang, Bovik, Sheikh, Simoncelli 2004 —
 * the metric the paper uses everywhere to quantify frame similarity.
 * An SSIM above 0.90 is the paper's threshold for "good" visual quality.
 */

#pragma once

#include "image/image.hh"

namespace coterie::image {

/** Parameters of the SSIM computation. */
struct SsimParams
{
    int windowSize = 8;    ///< square window side (paper uses 8x8 blocks)
    int stride = 4;        ///< window step; < windowSize -> overlapping
    double k1 = 0.01;      ///< stabilisation constant C1 = (k1*L)^2
    double k2 = 0.03;      ///< stabilisation constant C2 = (k2*L)^2
    double dynamicRange = 255.0;
    /** Threading: 0 = shared pool, 1 = serial (results identical). */
    int threads = 0;
};

/** The paper's similarity threshold for reusable / "good" frames. */
inline constexpr double kGoodSsim = 0.90;

/**
 * Mean SSIM between the luma planes of two equally-sized images.
 * Returns 1.0 for identical images; panics on size mismatch.
 */
double ssim(const Image &a, const Image &b, const SsimParams &params = {});

/**
 * SSIM on raw luma planes (width*height doubles each). Overlapping
 * grids whose stride divides windowSize with a small overlap factor
 * (q = win/stride <= 4, e.g. the default 8x8 / stride 4) run a tiled
 * kernel, fanned out over the shared thread pool with
 * thread-count-independent results: it reads every pixel exactly once
 * into stride x stride tile moments and assembles each window from
 * q*q tile sums, within 1e-12 of `ssimLumaReference`. Every other
 * grid runs `ssimLumaReference` itself.
 */
double ssimLuma(const std::vector<double> &a, const std::vector<double> &b,
                int width, int height, const SsimParams &params = {});

/**
 * The naive O(win^2)-per-window serial formulation. It is the
 * production kernel for disjoint windows, for images smaller than one
 * window and for overlapping grids the tiled kernel does not take, and
 * the regression/benchmark reference for the tiled kernel.
 */
double ssimLumaReference(const std::vector<double> &a,
                         const std::vector<double> &b, int width,
                         int height, const SsimParams &params = {});

} // namespace coterie::image

