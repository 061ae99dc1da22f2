/// \file alloc_count.cpp
/// Replacement global operator new/delete that count heap allocations.
///
/// Counting only: storage comes from malloc/free. The counter is striped
/// over cache-line-padded slots picked by thread, so the pool's workers do
/// not contend on one atomic while a stage allocates in parallel.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <thread>

#include "report.hpp"

namespace {

constexpr std::size_t kStripes = 64;

struct alignas(64) Stripe {
  std::atomic<std::uint64_t> count{0};
};

Stripe g_stripes[kStripes];

void note_alloc() noexcept {
  static thread_local const std::size_t slot =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kStripes;
  g_stripes[slot].count.fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) noexcept {
  note_alloc();
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) noexcept {
  note_alloc();
  if (size == 0) size = align;
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

}  // namespace

namespace perfbench {

std::uint64_t alloc_count() noexcept {
  std::uint64_t total = 0;
  for (const Stripe& s : g_stripes) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
