#include "common/backoff.h"

namespace sciera {

void CircuitBreaker::record_failure(SimTime now) {
  if (open_) {
    // Inside the window a failure changes nothing; a failed half-open
    // probe re-opens the window from now.
    if (now >= open_until_) {
      open_until_ = now + kOpenFor;
      ++times_opened_;
    }
    return;
  }
  ++consecutive_failures_;
  if (consecutive_failures_ >= kFailureThreshold) {
    open_ = true;
    open_until_ = now + kOpenFor;
    ++times_opened_;
  }
}

}  // namespace sciera
