// Reference implementations of the two JPEG decode phases, kept as test
// oracles and as the "before" legs of bench_media. Nothing in the
// production libraries calls them.
//
//   decode_bit_serial   a self-contained baseline decoder that walks the
//                       Huffman codes one bit at a time (T.81 §F.2.2.3);
//                       it shares only jpeg_common's tables and markers
//                       with media::jpeg, so it checks the table-driven
//                       decoder instead of repeating it.
//   idct_block_float,   the separable float IDCT (64 multiply-adds per
//   idct_component_float  output sample and pass) that the fixed-point
//                       AAN IDCT must stay within 1 LSB of.
#pragma once

#include <cstddef>
#include <cstdint>

#include "media/frame.hpp"
#include "media/jpeg.hpp"
#include "support/status.hpp"

namespace reference::jpeg {

// Parse markers, entropy-decode bit-serially and dequantize into `*out`.
// On a well-formed baseline stream the result equals
// media::jpeg::decode_to_coefficients_into's, nonzero_coeffs included.
// Every truncated or malformed stream is an error; `*out` is then
// unspecified.
support::Status decode_bit_serial(const uint8_t* data, size_t size,
                                  media::jpeg::CoeffImage* out);

// One block: raw spatial values (the caller level-shifts and clamps).
void idct_block_float(const int16_t in[64], float out[64]);

// A whole component into `out` (the component's pixel dimensions):
// rounded, level-shifted and clamped pixels.
void idct_component_float(const media::jpeg::CoeffPlane& comp,
                          media::PlaneView out);

}  // namespace reference::jpeg
