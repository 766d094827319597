#include "src/runtime/history.h"

namespace bmx {

bool VcLeq(const VectorClock& a, const VectorClock& b) {
  BMX_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) {
      return false;
    }
  }
  return true;
}

bool VcConcurrent(const VectorClock& a, const VectorClock& b) {
  return !VcLeq(a, b) && !VcLeq(b, a);
}

}  // namespace bmx
