#include "image/video.hh"

#include "image/codec_internal.hh"
#include "support/logging.hh"

namespace coterie::image {

namespace {

using detail::Planes;

/** Encode P-frame residual planes; chroma subsampled if configured. */
void
encodeResidual(const Planes &planes, int w, int h, const CodecParams &params,
               std::vector<std::uint8_t> &out)
{
    detail::encodePlane(planes.y, w, h, params.quality, false, out);
    if (params.chromaSubsample) {
        int sw = 0, sh = 0;
        const auto co_s = detail::subsample2(planes.co, w, h, sw, sh);
        const auto cg_s = detail::subsample2(planes.cg, w, h, sw, sh);
        detail::encodePlane(co_s, sw, sh, params.quality, true, out);
        detail::encodePlane(cg_s, sw, sh, params.quality, true, out);
    } else {
        detail::encodePlane(planes.co, w, h, params.quality, true, out);
        detail::encodePlane(planes.cg, w, h, params.quality, true, out);
    }
}

void
subtractInPlace(Planes &a, const Planes &b)
{
    for (std::size_t i = 0; i < a.y.size(); ++i) {
        a.y[i] -= b.y[i];
        a.co[i] -= b.co[i];
        a.cg[i] -= b.cg[i];
    }
}

void
addInPlace(Planes &a, const Planes &b)
{
    for (std::size_t i = 0; i < a.y.size(); ++i) {
        a.y[i] += b.y[i];
        a.co[i] += b.co[i];
        a.cg[i] += b.cg[i];
    }
}

} // namespace

std::size_t
EncodedVideo::totalBytes() const
{
    std::size_t total = 0;
    for (const EncodedVideoFrame &frame : frames)
        total += frame.sizeBytes();
    return total;
}

EncodedVideo
encodeVideo(const std::vector<Image> &frames, const VideoParams &params)
{
    COTERIE_ASSERT(!frames.empty(), "encoding empty sequence");
    EncodedVideo video;
    video.width = frames.front().width();
    video.height = frames.front().height();
    video.params = params.codec;
    video.gopLength = std::max(1, params.gopLength);

    // The encoder tracks the *reconstructed* reference (what the
    // decoder will see), so quantisation error does not accumulate.
    Planes reference;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const Image &frame = frames[i];
        COTERIE_ASSERT(frame.width() == video.width &&
                       frame.height() == video.height,
                       "sequence frames must share dimensions");
        EncodedVideoFrame out;
        const bool intra =
            i % static_cast<std::size_t>(video.gopLength) == 0;
        if (intra) {
            out.type = FrameType::Intra;
            detail::encodeRgb(frame, video.params, out.bytes);
            reference = detail::decodePlanes(out.bytes, video.width,
                                             video.height, video.params);
        } else {
            out.type = FrameType::Predicted;
            Planes delta = detail::rgbToYcocg(frame);
            subtractInPlace(delta, reference);
            encodeResidual(delta, video.width, video.height, video.params,
                           out.bytes);
            Planes recon = detail::decodePlanes(out.bytes, video.width,
                                                video.height, video.params);
            addInPlace(recon, reference);
            reference = std::move(recon);
        }
        video.frames.push_back(std::move(out));
    }
    return video;
}

std::vector<Image>
decodeVideo(const EncodedVideo &video)
{
    std::vector<Image> out;
    out.reserve(video.frames.size());
    Planes reference;
    for (const EncodedVideoFrame &frame : video.frames) {
        Planes planes = detail::decodePlanes(frame.bytes, video.width,
                                             video.height, video.params);
        if (frame.type == FrameType::Predicted) {
            COTERIE_ASSERT(!reference.y.empty(),
                           "P-frame before any I-frame");
            addInPlace(planes, reference);
        }
        reference = planes;
        out.push_back(
            detail::ycocgToRgb(planes, video.width, video.height));
    }
    return out;
}

} // namespace coterie::image
