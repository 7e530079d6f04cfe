// Philox4x32-10 counter-based PRNG (Salmon et al., "Parallel Random
// Numbers: As Easy as 1, 2, 3", SC'11) — the third way to give every
// work-item its own stream, completing the library's parallel-RNG
// menu:
//
//   * distinct seeds (the paper's choice): overlap merely improbable;
//   * jump-ahead (rng/jump.h): one master sequence, overlap impossible,
//     needs the GF(2) machinery per stream;
//   * counter-based (this file): stateless — output = bijection(key,
//     counter) — so work-item w simply *is* key w, streams never
//     overlap by construction, and there is no state to spill
//     (contrast with the MT19937 spill penalty that costs the GPU a
//     factor of ~2 in Table III; this is what cuRAND ships today).
//
// On the paper's FPGA the Mersenne-Twister is preferable (tiny BRAM,
// one new value per cycle with trivial logic), which the micro bench
// quantifies — Philox's four 32x32 multiplies per round x 10 rounds
// are the cost of statelessness. On the host the picture inverts:
// counters have no sequential state recurrence, so generate_block()
// encrypts independent counters 8 abreast through the AVX2 kernel
// (rng/simd_kernels.h) and seek() to ANY 128-bit output position is a
// handful of integer ops.
#pragma once

#include <array>
#include <cstdint>

namespace dwi::rng {

/// One Philox4x32-10 block: encrypt `counter` under `key`, producing
/// four 32-bit outputs.
std::array<std::uint32_t, 4> philox4x32(
    const std::array<std::uint32_t, 4>& counter,
    const std::array<std::uint32_t, 2>& key);

/// Stream adapter: key = (seed, stream id), counter increments per
/// block; next() serves the four lanes in order.
class Philox {
 public:
  Philox(std::uint32_t seed, std::uint32_t stream_id = 0);

  std::uint32_t next();

  /// Bulk path mirroring MersenneTwister::generate_block: fill `out`
  /// with the next `count` outputs, exactly as count x next(). Drains
  /// the buffered block first, then encrypts whole counters straight
  /// into `out` through the dispatched block kernel (8 counters
  /// abreast under AVX2).
  void generate_block(std::uint32_t* out, std::size_t count);

  /// Jump to an absolute output position (O(1) — the counter-based
  /// superpower).
  void seek(std::uint64_t output_index);

  /// 128-bit variant for positions beyond 2^64 outputs — substream
  /// allocation multiplies index by stride, which overflows 64 bits
  /// long before the counter space (2^130 outputs) runs out. The
  /// position is hi·2^64 + lo.
  void seek(std::uint64_t output_index_lo, std::uint64_t output_index_hi);

  /// Relative counterpart of seek(): advance `count` outputs from the
  /// current position, also O(1). This is the primitive for jumping
  /// *within* a derived substream (whose absolute base position the
  /// holder need not know) — e.g. recomputing a suffix of a served
  /// request's tape without replaying its prefix.
  void skip(std::uint64_t count);

  const std::array<std::uint32_t, 2>& key() const { return key_; }

  /// Absolute position modulo 2^64: the index of the output the next
  /// next() returns.
  std::uint64_t position() const {
    const std::uint64_t block =
        counter_[0] | (static_cast<std::uint64_t>(counter_[1]) << 32);
    return block * 4 - 4 + lane_;  // counter_ names the block after block_
  }

  /// Outputs served or skipped since construction or the last seek()
  /// (exact below 2^64). A derived substream starts with a seek(), so
  /// this is how much of its window a holder has used.
  std::uint64_t consumed() const { return position() - origin_; }

 private:
  friend class AdaptedPhilox;

  void refill();

  std::array<std::uint32_t, 2> key_;
  std::array<std::uint32_t, 4> counter_{};
  std::array<std::uint32_t, 4> block_{};
  unsigned lane_ = 4;  ///< forces refill on first next()
  std::uint64_t origin_ = 0;  ///< position() at the last seek()
};

/// Counter-based analogue of rng::SubstreamSplitter: partitions the
/// single master Philox sequence keyed (seed, stream_id) into
/// fixed-stride substreams, where substream i is the master with the
/// first i·stride outputs discarded. Derivation is one 128-bit
/// multiply and a counter write — O(1) per stream, stateless, no
/// squaring chains, no caches, nothing to contend on — which is what
/// makes per-request substream keying in the serving layer free.
class CounterSubstreams {
 public:
  CounterSubstreams(std::uint32_t seed, std::uint64_t stride,
                    std::uint32_t stream_id = 0);

  /// Generator positioned at absolute output index·stride of the
  /// master sequence. Any index up to 2^64-1 is valid: the 128-bit
  /// product always fits the Philox counter space.
  Philox stream(std::uint64_t index) const;

  std::uint64_t stride() const { return stride_; }
  std::uint32_t seed() const { return seed_; }

 private:
  std::uint32_t seed_;
  std::uint32_t stream_id_;
  std::uint64_t stride_;
};

/// Listing 3 semantics over a Philox stream: next(enable) always
/// computes the current output but commits the position only when
/// `enable` is true — the same enable-gating contract as
/// AdaptedMersenneTwister, so the pipelined work-item can run on
/// counter-based substreams unchanged. Filtering the call sequence to
/// enabled calls yields exactly the plain Philox sequence.
class AdaptedPhilox {
 public:
  explicit AdaptedPhilox(Philox inner) : inner_(inner) {}

  /// Compute the current output; commit the lane advance iff `enable`.
  std::uint32_t next(bool enable) {
    if (inner_.lane_ >= 4) inner_.refill();
    const std::uint32_t y = inner_.block_[inner_.lane_];
    if (enable) {
      ++inner_.lane_;
      ++committed_;
    }
    return y;
  }

  /// Block fast path for a run of `count` enabled draws: equivalent to
  /// count x next(true).
  void generate_block(std::uint32_t* out, std::size_t count) {
    inner_.generate_block(out, count);
    committed_ += count;
  }

  /// Number of committed (enabled) steps so far.
  std::uint64_t committed_steps() const { return committed_; }

 private:
  Philox inner_;
  std::uint64_t committed_ = 0;
};

}  // namespace dwi::rng
