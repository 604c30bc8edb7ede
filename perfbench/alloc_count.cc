// Counting global operator new for the benchmark binary only. Each thread
// claims one cache-line-padded slot on its first allocation and bumps it
// with a relaxed store of its own value, so counting adds no contended
// atomic read-modify-write to the measured threads. Readers sum the slots.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common.h"

namespace perfbench {
namespace {

constexpr int kSlots = 256;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};

Slot& my_slot() {
  // Slot claim allocates nothing; threads beyond kSlots share the last one
  // (counts stay exact only for the first kSlots - 1 threads, far more than
  // the benchmark ever starts).
  thread_local Slot* slot = [] {
    const int index = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    return &g_slots[index < kSlots ? index : kSlots - 1];
  }();
  return *slot;
}

inline void count_one() {
  Slot& slot = my_slot();
  slot.count.store(slot.count.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  count_one();
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_one();
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

std::uint64_t thread_allocs() { return my_slot().count.load(std::memory_order_relaxed); }

std::uint64_t process_allocs() {
  std::uint64_t total = 0;
  for (const Slot& slot : g_slots) total += slot.count.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::allocate(size); }
void* operator new[](std::size_t size) { return perfbench::allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
