// SpMV over CSR — the zoo's data-dependent trip-count kernel.
//
// Two decoupled work-items, the paper's producer/consumer split applied
// to sparse algebra: a row-pointer work-item walks row_ptr and streams
// each row's [begin, end) range through an hls::stream; a MAC work-item
// consumes (col, value) pairs and accumulates y[r]. The inner trip
// count is the row's nnz — known only at runtime:
//   kStatic  — the scheduler cannot flatten a variable-bound inner loop,
//     so every row drains the MAC pipeline (pipeline_latency cycles)
//     before the next row issues, and the single-accumulator float
//     recurrence forces II = add_latency inside a row.
//   kDynamic — rows stream back-to-back at II = 1 (the decoupled
//     row-pointer work-item keeps ranges buffered ahead); only a row
//     SHORTER than the adder latency stalls, for the cycles the final
//     sum still needs before y[r] can store.
// Both modes accumulate in CSR order, so y is bit-identical to
// spmv_oracle().
#pragma once

#include <cstdint>
#include <vector>

#include "workloads/scheduling.h"

namespace dwi::workloads {

struct CsrMatrix {
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::vector<std::uint32_t> row_ptr;  ///< rows+1 entries, row_ptr[0] == 0
  std::vector<std::uint32_t> col_idx;  ///< nnz entries, each < cols
  std::vector<float> values;           ///< nnz entries

  std::uint32_t nnz() const {
    return row_ptr.empty() ? 0u : row_ptr.back();
  }
};

struct SpmvConfig {
  SchedulingMode mode = SchedulingMode::kDynamic;
  /// Float-accumulate chain latency (the y[r] += v*x recurrence).
  unsigned add_latency = 4;
  /// MAC pipeline depth a static schedule drains at each row boundary.
  unsigned pipeline_latency = 8;
  /// Depth of the row-pointer → MAC hls::stream (a RingBuffer of this
  /// capacity in the cycle loop).
  std::size_t stream_depth = 8;
};

struct SpmvOutput {
  std::vector<float> y;
  WorkloadStats stats;
};

SpmvOutput run_spmv(const SpmvConfig& cfg, const CsrMatrix& m,
                    const std::vector<float>& x);

/// Scalar host oracle: per-row accumulation in CSR order, no timing.
std::vector<float> spmv_oracle(const CsrMatrix& m,
                               const std::vector<float>& x);

/// Deterministic CSR matrix from a uniform u32 source: each row draws
/// its nnz from [nnz_min, nnz_max], then (col, value) per element —
/// a fixed 1 + 2·nnz draws per row.
template <typename NextU32>
CsrMatrix make_spmv_matrix(std::uint32_t rows, std::uint32_t cols,
                           std::uint32_t nnz_min, std::uint32_t nnz_max,
                           NextU32&& next) {
  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.reserve(rows + 1);
  m.row_ptr.push_back(0);
  const std::uint32_t span = nnz_max - nnz_min + 1;
  for (std::uint32_t r = 0; r < rows; ++r) {
    const std::uint32_t nnz = nnz_min + next() % span;
    for (std::uint32_t e = 0; e < nnz; ++e) {
      m.col_idx.push_back(next() % cols);
      m.values.push_back(static_cast<float>(next() >> 8) *
                         (1.0f / 16777216.0f));
    }
    m.row_ptr.push_back(m.row_ptr.back() + nnz);
  }
  return m;
}

/// Dense vector with 24-bit-exact entries in [0, 1).
template <typename NextU32>
std::vector<float> make_dense_vector(std::uint32_t n, NextU32&& next) {
  std::vector<float> x;
  x.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    x.push_back(static_cast<float>(next() >> 8) * (1.0f / 16777216.0f));
  }
  return x;
}

}  // namespace dwi::workloads
