// Test helper: how many pages of a segment image's mapping are committed.

#ifndef TESTS_MEM_RESIDENT_PAGES_H_
#define TESTS_MEM_RESIDENT_PAGES_H_

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include "src/mem/segment.h"

namespace bmx {

// Pages of the image's bytes that the kernel has committed, per mincore.
inline size_t ResidentPages(const SegmentImage& seg) {
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t begin = reinterpret_cast<uintptr_t>(seg.bytes()) & ~(page - 1);
  const uintptr_t end = reinterpret_cast<uintptr_t>(seg.bytes()) + kSegmentBytes;
  std::vector<unsigned char> resident((end - begin + page - 1) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(begin), end - begin, resident.data()), 0);
  size_t n = 0;
  for (unsigned char r : resident) {
    n += r & 1;
  }
  return n;
}

}  // namespace bmx

#endif  // TESTS_MEM_RESIDENT_PAGES_H_
