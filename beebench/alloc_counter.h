// Allocation counting for the traced run.
#pragma once

#include <cstdint>

namespace beebench {

/// Global operator new calls so far in this process, from every thread.
/// Only the traced binary counts (alloc_counter.cpp); the untraced binary
/// links no_alloc_counter.cpp, where this stays 0 and the system allocator
/// runs unwrapped, so end-to-end numbers carry no counting cost.
std::uint64_t allocations();

/// True in the binary whose operator new counts.
bool counting_allocations();

}  // namespace beebench
