// Heap-allocation guard for the point-read path. This binary replaces
// the global operator new with one that counts the calling thread's
// allocations, and holds a warm-cache Db::Get to zero of them: the
// read walks the Version in place (Version::ForEachMemTable /
// ForEachTable) instead of materializing a table list per call.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "lsm/db.h"

namespace {

// Per thread, so the Db's background threads never touch a count.
thread_local bool t_counting = false;
thread_local size_t t_allocations = 0;

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (t_counting) ++t_allocations;
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  return std::aligned_alloc(align, (size + align - 1) / align * align);
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align) {
  void* p = CountedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bloomrf {
namespace {

/// Allocations the calling thread makes while `fn` runs.
template <typename Fn>
size_t AllocationsDuring(Fn&& fn) {
  t_allocations = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocations;
}

TEST(GetAllocTest, CounterSeesAnAllocation) {
  std::vector<uint64_t> v;
  const size_t n = AllocationsDuring([&] { v.resize(64); });
  EXPECT_EQ(v.size(), 64u);
  EXPECT_GE(n, 1u);
}

TEST(GetAllocTest, WarmCacheGetMakesNoHeapAllocation) {
  const std::string dir = "/tmp/bloomrf_get_alloc_test";
  std::filesystem::remove_all(dir);
  {
    DbOptions options;
    options.dir = dir;
    options.wal = false;
    options.filter_policy = NewBloomRFPolicy(16.0, 64.0);
    Db db(options);
    // Eight overlapping L0 tables, as in the paper's L0-heavy setup,
    // plus a live memtable on top.
    constexpr uint64_t kTables = 8;
    constexpr uint64_t kPerTable = 500;
    for (uint64_t t = 0; t < kTables; ++t) {
      for (uint64_t i = 0; i < kPerTable; ++i) {
        ASSERT_TRUE(db.Put(i * 16 + t, "value-" + std::to_string(t)));
      }
      ASSERT_TRUE(db.Flush());
    }
    for (uint64_t i = 0; i < kPerTable; ++i) {
      ASSERT_TRUE(db.Put(i * 16 + kTables, "memtable"));
    }
    ASSERT_EQ(db.level_table_counts(), (std::vector<size_t>{kTables}));

    // Keys 16i+0..8 are present (tables and memtable), 16i+9..15 absent.
    constexpr uint64_t kDomain = kPerTable * 16;
    std::string value;
    for (uint64_t key = 0; key < kDomain; ++key) db.Get(key, &value);  // warm
    value.reserve(64);
    size_t found = 0;
    const size_t allocations = AllocationsDuring([&] {
      for (uint64_t key = 0; key < kDomain; ++key) {
        found += db.Get(key, &value) ? 1 : 0;
      }
    });
    EXPECT_EQ(found, kPerTable * (kTables + 1));
    EXPECT_EQ(allocations, 0u) << "over " << kDomain << " Gets";
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bloomrf
