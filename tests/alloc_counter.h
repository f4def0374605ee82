// Counting global allocator for the tests and benches that assert or
// report heap allocations per operation (the dispatch-path budgets of
// DESIGN.md §8). Linking the `alloc_counter` object library into a binary
// replaces every global operator new and delete with malloc-backed
// versions, and each operator new counts one allocation.
#pragma once

#include <cstdint>

namespace beehive::testing {

/// Global operator new calls so far in this process, from every thread.
std::uint64_t allocation_count();

}  // namespace beehive::testing
