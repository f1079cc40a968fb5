#include "hierarchy/interval.h"

#include <algorithm>

namespace ldp {

std::string Interval::ToString() const {
  // Appended piecewise: GCC 12 raises a false -Wrestrict on
  // `"[" + std::to_string(...)` chains in optimized builds.
  std::string out = "[";
  out += std::to_string(lo);
  out += ", ";
  out += std::to_string(hi);
  out += ']';
  return out;
}

std::optional<Interval> Intersect(const Interval& a, const Interval& b) {
  const uint64_t lo = std::max(a.lo, b.lo);
  const uint64_t hi = std::min(a.hi, b.hi);
  if (lo > hi) return std::nullopt;
  return Interval{lo, hi};
}

}  // namespace ldp
