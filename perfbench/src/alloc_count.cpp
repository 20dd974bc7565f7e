// Counts heap allocations per thread from outside the simulator: the
// benchmark binary replaces the global operator new/delete, and spans
// difference the calling thread's counter around each layer call.
// Per-thread counters keep the count exact on the single-threaded
// workloads and free of cross-core contention on the threaded one.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "trace.h"

namespace {

thread_local std::uint64_t t_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

std::uint64_t ThreadAllocs() { return t_allocs; }

}  // namespace perfbench

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
