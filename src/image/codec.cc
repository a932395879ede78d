#include "image/codec.hh"

#include "image/codec_internal.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace coterie::image {

EncodedFrame
encode(const Image &frame, const CodecParams &params)
{
    COTERIE_ASSERT(!frame.empty(), "encoding empty frame");
    COTERIE_SPAN("codec.encode", "image");
    COTERIE_TIMER_SCOPE("codec.encode_ms");
    COTERIE_COUNT("codec.encodes");
    EncodedFrame out;
    out.width = frame.width();
    out.height = frame.height();
    out.params = params;
    detail::encodeRgb(frame, params, out.bytes);
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
    return detail::ycocgToRgb(
        detail::decodePlanes(encoded.bytes, w, h, encoded.params), w, h);
}

} // namespace coterie::image
