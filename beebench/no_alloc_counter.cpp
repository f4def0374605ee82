// The untraced binary keeps the system allocator: nothing is counted.

#include "alloc_counter.h"

namespace beebench {

std::uint64_t allocations() { return 0; }

bool counting_allocations() { return false; }

}  // namespace beebench
