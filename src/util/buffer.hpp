// Cache-line-aligned, optionally uninitialized storage.
//
// The embedding matrix Z is n*K doubles (2.6 GB at Friendster scale in the
// paper). std::vector value-initializes, which (a) touches every page on one
// thread and (b) defeats first-touch NUMA placement. UninitBuffer allocates
// aligned raw storage for trivially-copyable types and leaves initialization
// to the caller. zeroed() is the exception: it returns zeroed storage
// without writing the zeros twice -- a large block comes straight from the
// kernel, which hands out zero pages, and is only faulted in, in parallel.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "parallel/parallel_for.hpp"

namespace gee::util {

inline constexpr std::size_t kCacheLineBytes = 64;

/// zeroed() maps blocks of at least this many bytes itself. It is glibc's
/// largest mmap threshold on 64-bit, so malloc already serves every such
/// block from a fresh mapping: zeroed() changes where no memory comes from,
/// it only skips the second write of zeros.
inline constexpr std::size_t kMapThresholdBytes = std::size_t{32} << 20;

/// Owning, 64-byte-aligned buffer of trivially-copyable T. Contents are
/// uninitialized after construction and reset() -- callers must fill before
/// reading -- and all zero after zeroed().
template <class T>
class UninitBuffer {
  static_assert(std::is_trivially_copyable_v<T>,
                "UninitBuffer requires trivially copyable element types");

 public:
  UninitBuffer() noexcept = default;

  explicit UninitBuffer(std::size_t n) { allocate(n); }

  /// n zero elements. A block of kMapThresholdBytes or more is mapped
  /// fresh from the kernel, which zeroes it, and pre-faulted with
  /// madvise(MADV_POPULATE_WRITE): one contiguous run of pages per thread,
  /// the placement par::fill_zero's first touch gives. A smaller block, or
  /// a run the kernel will not populate (Linux < 5.14), is zero-filled.
  /// No MADV_HUGEPAGE: where THP defrag is "madvise", a fault in such a
  /// range may compact memory synchronously and stall for tens of ms.
  static UninitBuffer zeroed(std::size_t n) {
    UninitBuffer b;
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMapThresholdBytes) {
      b.allocate(n);
      gee::par::fill_zero(b.data_, n);
      return b;
    }
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    b.data_ = static_cast<T*>(p);
    b.size_ = n;
    b.mapped_ = true;
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t pages = (bytes + page - 1) / page;
    gee::par::parallel_team([&](int tid, int team) {
      const auto [lo, hi] = gee::par::block_range(
          pages, static_cast<std::size_t>(team), static_cast<std::size_t>(tid));
      auto* first = static_cast<std::byte*>(p) + lo * page;
      const std::size_t len = (hi - lo) * page;
      if (len != 0 && ::madvise(first, len, MADV_POPULATE_WRITE) != 0) {
        gee::par::fill_zero(first, len);
      }
    });
    return b;
  }

  UninitBuffer(const UninitBuffer&) = delete;
  UninitBuffer& operator=(const UninitBuffer&) = delete;

  UninitBuffer(UninitBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        mapped_(std::exchange(other.mapped_, false)) {}

  UninitBuffer& operator=(UninitBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      mapped_ = std::exchange(other.mapped_, false);
    }
    return *this;
  }

  ~UninitBuffer() { release(); }

  /// Discard contents and reallocate to exactly n elements.
  void reset(std::size_t n) {
    release();
    allocate(n);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  [[nodiscard]] std::span<T> span() noexcept { return {data_, size_}; }
  [[nodiscard]] std::span<const T> span() const noexcept { return {data_, size_}; }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

 private:
  void allocate(std::size_t n) {
    size_ = n;
    if (n == 0) {
      data_ = nullptr;
      return;
    }
    data_ = static_cast<T*>(::operator new[](
        n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }

  void release() noexcept {
    if (data_ != nullptr) {
      if (mapped_) {
        ::munmap(data_, size_ * sizeof(T));
      } else {
        ::operator delete[](data_, std::align_val_t{kCacheLineBytes});
      }
      data_ = nullptr;
    }
    size_ = 0;
    mapped_ = false;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;  ///< data_ came from zeroed()'s mmap
};

}  // namespace gee::util
