// DenseMatrix<T>: a row-major dense matrix.
//
// This is the "tall dense matrix" of the paper (Table 1): feature matrices
// H (n x k), gradients G (n x k), and the small square parameter matrices
// W (k x k). Row-major storage keeps each vertex's feature vector
// contiguous, which is what every kernel in this project iterates over.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "tensor/common.hpp"

namespace agnn {

template <typename T>
class DenseMatrix {
 public:
  using value_type = T;

  DenseMatrix() = default;

  DenseMatrix(index_t rows, index_t cols, T init = T(0))
      : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols), init) {
    AGNN_ASSERT(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
  }

  DenseMatrix(index_t rows, index_t cols, std::vector<T> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    AGNN_ASSERT(static_cast<index_t>(data_.size()) == rows * cols,
                "data size must equal rows*cols");
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }
  bool empty() const { return data_.empty(); }

  // Element capacity of the backing storage. A matrix resized within its
  // capacity performs no heap allocation — the contract the Workspace buffer
  // pool is built on.
  index_t capacity() const { return static_cast<index_t>(data_.capacity()); }

  void reserve(index_t elems) { data_.reserve(static_cast<std::size_t>(elems)); }

  // Reshape in place, reusing the backing storage. Contents after a resize
  // are unspecified (old values are retained where sizes overlap); callers
  // are expected to overwrite every element — this is the entry point of the
  // out-parameter kernel overloads.
  void resize(index_t rows, index_t cols) {
    AGNN_ASSERT(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<std::size_t>(rows * cols));
  }

  T& operator()(index_t i, index_t j) {
    AGNN_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index out of range");
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  const T& operator()(index_t i, index_t j) const {
    AGNN_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index out of range");
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  std::span<T> row(index_t i) {
    AGNN_ASSERT(i >= 0 && i < rows_, "row index out of range");
    return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
  }
  std::span<const T> row(index_t i) const {
    AGNN_ASSERT(i >= 0 && i < rows_, "row index out of range");
    return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::span<T> flat() { return {data_.data(), data_.size()}; }
  std::span<const T> flat() const { return {data_.data(), data_.size()}; }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  void set_zero() { fill(T(0)); }

  // Glorot/Xavier-uniform initialization, the standard GNN weight init.
  void fill_glorot(Rng& rng) {
    const double limit = std::sqrt(6.0 / static_cast<double>(rows_ + cols_));
    for (auto& v : data_) v = static_cast<T>(rng.next_uniform(-limit, limit));
  }

  void fill_uniform(Rng& rng, double lo, double hi) {
    for (auto& v : data_) v = static_cast<T>(rng.next_uniform(lo, hi));
  }

  bool same_shape(const DenseMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // Extract rows [begin, end) as a new matrix (used by the block
  // distribution layer to slice feature matrices).
  DenseMatrix slice_rows(index_t begin, index_t end) const {
    AGNN_ASSERT(begin >= 0 && begin <= end && end <= rows_, "bad row slice");
    DenseMatrix out(end - begin, cols_);
    std::copy(data_.begin() + begin * cols_, data_.begin() + end * cols_,
              out.data_.begin());
    return out;
  }

  template <typename U>
  DenseMatrix<U> cast() const {
    DenseMatrix<U> out(rows_, cols_);
    for (index_t i = 0; i < size(); ++i) out.data()[i] = static_cast<U>(data_[i]);
    return out;
  }

  friend bool operator==(const DenseMatrix& a, const DenseMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<T> data_;
};

}  // namespace agnn
