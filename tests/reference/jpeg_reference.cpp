#include "jpeg_reference.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "media/jpeg_common.hpp"
#include "support/check.hpp"

namespace reference::jpeg {
namespace {

using media::jpeg::CoeffImage;
using media::jpeg::CoeffPlane;
using media::jpeg::HuffDecodeTable;
using media::jpeg::kZigZag;

support::Status bad(const char* what) {
  return support::invalid_argument(
      std::string("reference JPEG decode: ") + what);
}

// One byte at a time, one bit at a time. Unstuffs 0xFF00 and stops at
// any real marker or at the end of the data.
class BitReader {
 public:
  BitReader(const uint8_t* data, size_t size, size_t pos)
      : data_(data), size_(size), pos_(pos) {}

  // -1 once the entropy segment ends (marker or end of data).
  int next_bit() {
    if (nbits_ == 0 && !fill()) return -1;
    --nbits_;
    return (acc_ >> nbits_) & 1;
  }

  // `n` bits MSB-first; -1 on failure.
  int32_t get_bits(int n) {
    int32_t v = 0;
    for (int i = 0; i < n; ++i) {
      const int b = next_bit();
      if (b < 0) return -1;
      v = (v << 1) | b;
    }
    return v;
  }

  // Drop the pad bits and consume RST(index mod 8).
  bool consume_restart(int index) {
    nbits_ = 0;
    if (pos_ + 1 >= size_ || data_[pos_] != 0xff ||
        data_[pos_ + 1] != media::jpeg::kRST0 + (index & 7))
      return false;
    pos_ += 2;
    return true;
  }

  // Only pad bits are left and the next marker is `marker`.
  bool at_trailing_marker(uint8_t marker) const {
    return nbits_ < 8 && pos_ + 1 < size_ && data_[pos_] == 0xff &&
           data_[pos_ + 1] == marker;
  }

 private:
  bool fill() {
    if (pos_ >= size_) return false;
    const uint8_t byte = data_[pos_];
    if (byte == 0xff) {
      if (pos_ + 1 >= size_ || data_[pos_ + 1] != 0x00) return false;
      ++pos_;  // stuffed 0xFF data byte
    }
    ++pos_;
    acc_ = byte;
    nbits_ = 8;
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_;
  uint32_t acc_ = 0;
  int nbits_ = 0;
};

// T.81 §F.2.2.3 DECODE: grow the code one bit at a time until it is at
// most the largest code of its length. -1 on failure.
int decode_symbol(BitReader& br, const HuffDecodeTable& t) {
  int32_t code = 0;
  for (size_t len = 1; len <= 16; ++len) {
    const int b = br.next_bit();
    if (b < 0) return -1;
    code = (code << 1) | b;
    if (t.max_code[len] >= 0 && code <= t.max_code[len]) {
      const int idx = t.val_ptr[len] + (code - t.min_code[len]);
      if (idx < 0 || idx >= static_cast<int>(t.values.size())) return -1;
      return t.values[static_cast<size_t>(idx)];
    }
  }
  return -1;
}

// T.81 EXTEND.
int extend(int v, int nbits) {
  return v < (1 << (nbits - 1)) ? v - (1 << nbits) + 1 : v;
}

struct Component {
  int id = 0;
  int h = 1, v = 1;
  int quant_id = 0;
  int dc_table = 0, ac_table = 0;
  int dc_pred = 0;
};

struct Tables {
  std::array<std::array<uint16_t, 64>, 4> quant{};
  std::array<bool, 4> quant_present{};
  std::array<HuffDecodeTable, 4> dc;
  std::array<HuffDecodeTable, 4> ac;
};

// Decode one 8x8 block into natural-order, dequantized coefficients.
support::Status decode_block(BitReader& br, const Tables& t, Component& c,
                             std::array<int16_t, 64>& block,
                             size_t* nonzero) {
  const auto& q = t.quant[static_cast<size_t>(c.quant_id)];
  const int s = decode_symbol(br, t.dc[static_cast<size_t>(c.dc_table)]);
  if (s < 0 || s > 11) return bad("bad DC symbol");
  if (s > 0) {
    const int32_t bits = br.get_bits(s);
    if (bits < 0) return bad("truncated DC bits");
    c.dc_pred += extend(bits, s);
  }
  block[0] = static_cast<int16_t>(c.dc_pred * q[0]);
  if (c.dc_pred != 0) ++*nonzero;
  for (int k = 1; k < 64;) {
    const int rs = decode_symbol(br, t.ac[static_cast<size_t>(c.ac_table)]);
    if (rs < 0) return bad("bad AC symbol");
    const int run = rs >> 4;
    const int size = rs & 0x0f;
    if (size == 0) {
      if (run != 15) break;  // EOB
      k += 16;               // ZRL
      continue;
    }
    k += run;
    if (k > 63) return bad("AC run overflows block");
    const int32_t bits = br.get_bits(size);
    if (bits < 0) return bad("truncated AC bits");
    block[kZigZag[k]] =
        static_cast<int16_t>(extend(bits, size) * q[kZigZag[k]]);
    ++*nonzero;
    ++k;
  }
  return support::Status::ok();
}

// Float IDCT basis: scale(u) * cos((2x + 1) u pi / 16), indexed [x][u].
struct IdctBasis {
  float c[8][8];
  IdctBasis() {
    for (int x = 0; x < 8; ++x) {
      for (int u = 0; u < 8; ++u) {
        const float s = u == 0 ? std::sqrt(0.125f) : 0.5f;
        c[x][u] =
            s * std::cos((2 * x + 1) * u * 3.14159265358979323846f / 16);
      }
    }
  }
};

const IdctBasis& idct_basis() {
  static const IdctBasis basis;
  return basis;
}

}  // namespace

support::Status decode_bit_serial(const uint8_t* data, size_t size,
                                  CoeffImage* out) {
  using namespace media::jpeg;
  if (size < 4 || data[0] != 0xff || data[1] != kSOI)
    return bad("missing SOI marker");
  Tables t;
  std::vector<Component> comps;
  int width = 0, height = 0, restart_interval = 0;
  size_t pos = 2;
  size_t scan_start = 0;
  while (scan_start == 0) {
    if (pos + 1 >= size || data[pos] != 0xff) return bad("expected marker");
    const uint8_t marker = data[pos + 1];
    pos += 2;
    if (marker == kEOI) return bad("EOI before SOS");
    if (marker >= kRST0 && marker <= kRST0 + 7) continue;
    if (pos + 1 >= size) return bad("truncated segment");
    const size_t seg_len = static_cast<size_t>(data[pos]) << 8 | data[pos + 1];
    if (seg_len < 2 || pos + seg_len > size) return bad("bad segment length");
    const uint8_t* seg = data + pos + 2;
    const size_t len = seg_len - 2;
    switch (marker) {
      case kDQT:
        for (size_t off = 0; off < len;) {
          const size_t entry = (seg[off] >> 4) != 0 ? 2 : 1;
          const int id = seg[off] & 0x0f;
          ++off;
          if (id > 3 || off + 64 * entry > len) return bad("bad DQT");
          for (int i = 0; i < 64; ++i, off += entry)
            t.quant[static_cast<size_t>(id)][kZigZag[i]] = static_cast<uint16_t>(
                entry == 2 ? seg[off] << 8 | seg[off + 1] : seg[off]);
          t.quant_present[static_cast<size_t>(id)] = true;
        }
        break;
      case kDHT:
        for (size_t off = 0; off + 17 <= len;) {
          const int cls = seg[off] >> 4;
          const int id = seg[off] & 0x0f;
          if (cls > 1 || id > 3) return bad("bad DHT header");
          int count = 0;
          for (int i = 0; i < 16; ++i) count += seg[off + 1 + i];
          if (off + 17 + static_cast<size_t>(count) > len)
            return bad("truncated DHT");
          HuffDecodeTable table =
              build_decode_table(seg + off + 1, seg + off + 17, count);
          if (!table.valid) return bad("inconsistent DHT");
          (cls == 0 ? t.dc : t.ac)[static_cast<size_t>(id)] = std::move(table);
          off += 17 + static_cast<size_t>(count);
        }
        break;
      case kSOF0: {
        if (len < 6 || seg[0] != 8) return bad("bad SOF0");
        height = seg[1] << 8 | seg[2];
        width = seg[3] << 8 | seg[4];
        const int n = seg[5];
        if (width == 0 || height == 0 || (n != 1 && n != 3) ||
            len < 6 + 3 * static_cast<size_t>(n))
          return bad("bad SOF0");
        comps.assign(static_cast<size_t>(n), Component{});
        for (int i = 0; i < n; ++i) {
          Component& c = comps[static_cast<size_t>(i)];
          c.id = seg[6 + 3 * i];
          c.h = seg[7 + 3 * i] >> 4;
          c.v = seg[7 + 3 * i] & 0x0f;
          c.quant_id = seg[8 + 3 * i];
          if (c.h < 1 || c.h > 2 || c.v < 1 || c.v > 2 || c.quant_id > 3)
            return bad("unsupported sampling / quant id");
        }
        break;
      }
      case kSOF0 + 1:
      case kSOF0 + 2:
        return bad("only baseline (SOF0) is supported");
      case kDRI:
        if (len < 2) return bad("truncated DRI");
        restart_interval = seg[0] << 8 | seg[1];
        break;
      case kSOS: {
        if (comps.empty() || len < 1) return bad("bad SOS");
        const int ns = seg[0];
        if (ns != static_cast<int>(comps.size()) ||
            len < 1 + 2 * static_cast<size_t>(ns) + 3)
          return bad("bad SOS");
        for (int i = 0; i < ns; ++i) {
          const int selectors = seg[2 + 2 * i];
          if ((selectors >> 4) > 3 || (selectors & 0x0f) > 3)
            return bad("bad SOS table selector");
          bool found = false;
          for (Component& c : comps) {
            if (c.id != seg[1 + 2 * i]) continue;
            c.dc_table = selectors >> 4;
            c.ac_table = selectors & 0x0f;
            found = true;
          }
          if (!found) return bad("SOS references unknown component");
        }
        scan_start = pos + seg_len;
        break;
      }
      default:
        break;  // APPn, COM and the rest carry nothing the decode needs
    }
    pos += seg_len;
  }

  auto sampled = [&](size_t i, int h, int v) {
    return comps[i].h == h && comps[i].v == v;
  };
  const bool yuv420 = comps.size() == 3 && sampled(0, 2, 2) &&
                      sampled(1, 1, 1) && sampled(2, 1, 1);
  for (size_t i = yuv420 ? 1 : 0; i < comps.size(); ++i)
    if (!sampled(i, 1, 1))
      return bad("only 4:2:0 and 4:4:4 sampling supported");
  for (const Component& c : comps) {
    if (!t.quant_present[static_cast<size_t>(c.quant_id)])
      return bad("missing quantization table");
    if (!t.dc[static_cast<size_t>(c.dc_table)].valid ||
        !t.ac[static_cast<size_t>(c.ac_table)].valid)
      return bad("missing Huffman table");
  }

  CoeffImage& img = *out;
  img.width = width;
  img.height = height;
  img.format = comps.size() == 1 ? media::PixelFormat::kGray
               : yuv420          ? media::PixelFormat::kYuv420
                                 : media::PixelFormat::kYuv444;
  img.compressed_bytes = size;
  img.nonzero_coeffs = 0;
  const int mcu_px = yuv420 ? 16 : 8;
  const int mcus_x = (width + mcu_px - 1) / mcu_px;
  const int mcus_y = (height + mcu_px - 1) / mcu_px;
  img.comps.resize(comps.size());
  for (size_t i = 0; i < comps.size(); ++i) {
    CoeffPlane& cp = img.comps[i];
    cp.blocks_w = mcus_x * comps[i].h;
    cp.blocks_h = mcus_y * comps[i].v;
    media::plane_dims(img.format, width, height, static_cast<int>(i),
                      &cp.width, &cp.height);
    cp.blocks.assign(static_cast<size_t>(cp.blocks_w) *
                         static_cast<size_t>(cp.blocks_h),
                     {});
  }

  BitReader br(data, size, scan_start);
  int restart_index = 0;
  for (int mcu = 0; mcu < mcus_x * mcus_y; ++mcu) {
    if (restart_interval > 0 && mcu > 0 && mcu % restart_interval == 0) {
      if (!br.consume_restart(restart_index++)) return bad("missing RSTn");
      for (Component& c : comps) c.dc_pred = 0;
    }
    const int mx = mcu % mcus_x, my = mcu / mcus_x;
    for (size_t ci = 0; ci < comps.size(); ++ci) {
      Component& c = comps[ci];
      CoeffPlane& cp = img.comps[ci];
      for (int sy = 0; sy < c.v; ++sy) {
        for (int sx = 0; sx < c.h; ++sx) {
          const size_t b = static_cast<size_t>(my * c.v + sy) *
                               static_cast<size_t>(cp.blocks_w) +
                           static_cast<size_t>(mx * c.h + sx);
          support::Status st =
              decode_block(br, t, c, cp.blocks[b], &img.nonzero_coeffs);
          if (!st.is_ok()) return st;
        }
      }
    }
  }
  if (!br.at_trailing_marker(kEOI))
    return bad("entropy data not terminated by EOI");
  return support::Status::ok();
}

void idct_block_float(const int16_t in[64], float out[64]) {
  const IdctBasis& t = idct_basis();
  float tmp[64];
  for (int v = 0; v < 8; ++v) {  // rows: inverse over u
    for (int x = 0; x < 8; ++x) {
      float acc = 0;
      for (int u = 0; u < 8; ++u)
        acc += static_cast<float>(in[v * 8 + u]) * t.c[x][u];
      tmp[v * 8 + x] = acc;
    }
  }
  for (int x = 0; x < 8; ++x) {  // columns: inverse over v
    for (int y = 0; y < 8; ++y) {
      float acc = 0;
      for (int v = 0; v < 8; ++v) acc += tmp[v * 8 + x] * t.c[y][v];
      out[y * 8 + x] = acc;
    }
  }
}

void idct_component_float(const CoeffPlane& comp, media::PlaneView out) {
  SUP_CHECK(out.width == comp.width && out.height == comp.height);
  float pixels[64];
  for (int by = 0; by < comp.blocks_h; ++by) {
    for (int bx = 0; bx < comp.blocks_w; ++bx) {
      idct_block_float(
          comp.blocks[static_cast<size_t>(by) * comp.blocks_w + bx].data(),
          pixels);
      const int y_end = std::min(8, comp.height - by * 8);
      const int x_end = std::min(8, comp.width - bx * 8);
      for (int y = 0; y < y_end; ++y) {
        uint8_t* row = out.row(by * 8 + y) + bx * 8;
        for (int x = 0; x < x_end; ++x) {
          const int v = static_cast<int>(std::lround(pixels[y * 8 + x])) + 128;
          row[x] = static_cast<uint8_t>(std::clamp(v, 0, 255));
        }
      }
    }
  }
}

}  // namespace reference::jpeg
