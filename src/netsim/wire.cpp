#include "netsim/wire.hpp"

namespace smt::sim {

Status FaultProfile::validate() const {
  for (const double p : {p_good_to_bad, p_bad_to_good, good_loss_rate,
                         bad_loss_rate, corrupt_rate, reorder_rate}) {
    if (p < 0.0 || p > 1.0) {
      return make_error(Errc::invalid_argument,
                        "probabilities must be within [0, 1]");
    }
  }
  if (reorder_jitter < 0 || flap_period < 0 || flap_down < 0 ||
      flap_offset < 0) {
    return make_error(Errc::invalid_argument, "durations must be >= 0");
  }
  if (flap_down > 0 && flap_period == 0) {
    return make_error(Errc::invalid_argument,
                      "flap down time needs a positive flap period");
  }
  if (flap_period > 0 && flap_down >= flap_period) {
    return make_error(Errc::invalid_argument,
                      "flap down time must be shorter than the flap "
                      "period (equal means the wire never comes up)");
  }
  return Status::success();
}

}  // namespace smt::sim
