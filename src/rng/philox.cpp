#include "rng/philox.h"

#include <cstring>

#include "rng/simd_kernels.h"

namespace dwi::rng {

namespace {

constexpr std::uint32_t kMul0 = 0xD2511F53u;
constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;  // golden ratio
constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;  // sqrt(3) - 1

inline void mulhilo(std::uint32_t a, std::uint32_t b, std::uint32_t* hi,
                    std::uint32_t* lo) {
  const std::uint64_t p = static_cast<std::uint64_t>(a) * b;
  *hi = static_cast<std::uint32_t>(p >> 32);
  *lo = static_cast<std::uint32_t>(p);
}

inline std::array<std::uint32_t, 4> round_once(
    const std::array<std::uint32_t, 4>& x,
    const std::array<std::uint32_t, 2>& k) {
  std::uint32_t hi0, lo0, hi1, lo1;
  mulhilo(kMul0, x[0], &hi0, &lo0);
  mulhilo(kMul1, x[2], &hi1, &lo1);
  return {hi1 ^ x[1] ^ k[0], lo1, hi0 ^ x[3] ^ k[1], lo0};
}

/// 128-bit add of `n` onto the little-endian 4-word counter.
inline void counter_add(std::array<std::uint32_t, 4>* c, std::uint64_t n) {
  std::uint64_t carry = n;
  for (auto& w : *c) {
    carry += w;
    w = static_cast<std::uint32_t>(carry);
    carry >>= 32;
    if (carry == 0) break;
  }
}

}  // namespace

std::array<std::uint32_t, 4> philox4x32(
    const std::array<std::uint32_t, 4>& counter,
    const std::array<std::uint32_t, 2>& key) {
  std::array<std::uint32_t, 4> x = counter;
  std::array<std::uint32_t, 2> k = key;
  for (int round = 0; round < 10; ++round) {
    x = round_once(x, k);
    k[0] += kWeyl0;
    k[1] += kWeyl1;
  }
  return x;
}

Philox::Philox(std::uint32_t seed, std::uint32_t stream_id)
    : key_{seed, stream_id} {}

void Philox::refill() {
  block_ = philox4x32(counter_, key_);
  lane_ = 0;
  // 128-bit counter increment.
  for (auto& c : counter_) {
    if (++c != 0) break;
  }
}

std::uint32_t Philox::next() {
  if (lane_ >= 4) refill();
  return block_[lane_++];
}

void Philox::generate_block(std::uint32_t* out, std::size_t count) {
  // Drain whatever the current block still holds.
  while (lane_ < 4 && count > 0) {
    *out++ = block_[lane_++];
    --count;
  }
  // Bulk path: encrypt whole counters straight into `out` — the block
  // kernel runs 8 counters abreast under AVX2. counter_ already names
  // the NEXT unconsumed block (refill() post-increments), so the run
  // continues the sequence exactly.
  if (count >= 4) {
    const std::size_t nblocks = count / 4;
    simd::philox_block(counter_.data(), key_.data(), nblocks, out);
    counter_add(&counter_, nblocks);
    out += nblocks * 4;
    count -= nblocks * 4;
  }
  // Tail shorter than a block: refill and serve partial lanes.
  if (count > 0) {
    refill();
    std::memcpy(out, block_.data(), count * sizeof(std::uint32_t));
    lane_ = static_cast<unsigned>(count);
  }
}

void Philox::seek(std::uint64_t output_index) {
  seek(output_index, 0);
}

void Philox::seek(std::uint64_t output_index_lo,
                  std::uint64_t output_index_hi) {
  // block = position / 4 across the full 128-bit position.
  const std::uint64_t block_lo =
      (output_index_lo >> 2) | (output_index_hi << 62);
  const std::uint64_t block_hi = output_index_hi >> 2;
  counter_ = {static_cast<std::uint32_t>(block_lo),
              static_cast<std::uint32_t>(block_lo >> 32),
              static_cast<std::uint32_t>(block_hi),
              static_cast<std::uint32_t>(block_hi >> 32)};
  refill();
  lane_ = static_cast<unsigned>(output_index_lo % 4);
  origin_ = output_index_lo;
}

void Philox::skip(std::uint64_t count) {
  // Consume what the buffered block still holds (cheap, bounded by 4).
  while (lane_ < 4 && count > 0) {
    ++lane_;
    --count;
  }
  if (count == 0) return;
  // Now positioned at the start of block counter_; hop whole blocks by
  // counter arithmetic and land mid-block via refill.
  counter_add(&counter_, count / 4);
  refill();
  lane_ = static_cast<unsigned>(count % 4);
}

CounterSubstreams::CounterSubstreams(std::uint32_t seed, std::uint64_t stride,
                                     std::uint32_t stream_id)
    : seed_(seed), stream_id_(stream_id), stride_(stride) {}

Philox CounterSubstreams::stream(std::uint64_t index) const {
  // 128-bit start position index·stride: two 64-bit products never
  // exceed 2^128, and the counter space holds 2^130 outputs, so every
  // (index, stride) pair maps to a distinct non-overlapping window.
  const std::uint64_t a_lo = index & 0xffffffffull, a_hi = index >> 32;
  const std::uint64_t b_lo = stride_ & 0xffffffffull, b_hi = stride_ >> 32;
  const std::uint64_t mid0 = a_lo * b_hi, mid1 = a_hi * b_lo;
  std::uint64_t lo = a_lo * b_lo;
  std::uint64_t hi = a_hi * b_hi + (mid0 >> 32) + (mid1 >> 32);
  const std::uint64_t mid_sum = (mid0 & 0xffffffffull) + (mid1 & 0xffffffffull) +
                                (lo >> 32);
  lo = (lo & 0xffffffffull) | (mid_sum << 32);
  hi += mid_sum >> 32;
  Philox p(seed_, stream_id_);
  p.seek(lo, hi);
  return p;
}

}  // namespace dwi::rng
