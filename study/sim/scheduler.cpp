#include "study/sim/scheduler.h"

#include <cmath>
#include <stdexcept>

namespace hcpp::sim {

UploadScheduler::UploadScheduler(RandomSource& rng, uint64_t min_delay_ns,
                                 uint64_t max_delay_ns)
    : rng_(&rng), min_delay_ns_(min_delay_ns), max_delay_ns_(max_delay_ns) {
  if (max_delay_ns_ < min_delay_ns_) {
    throw std::invalid_argument("UploadScheduler: max < min");
  }
}

uint64_t UploadScheduler::schedule(uint64_t event_time_ns) {
  uint64_t span = max_delay_ns_ - min_delay_ns_;
  uint64_t jitter = (span == 0) ? 0 : rng_->u64() % (span + 1);
  return event_time_ns + min_delay_ns_ + jitter;
}

double pearson_correlation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    throw std::invalid_argument("pearson_correlation: bad input");
  }
  double n = static_cast<double>(x.size());
  double sx = 0, sy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  double mx = sx / n, my = sy / n;
  double num = 0, dx = 0, dy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - mx) * (y[i] - my);
    dx += (x[i] - mx) * (x[i] - mx);
    dy += (y[i] - my) * (y[i] - my);
  }
  if (dx == 0 || dy == 0) return 0.0;
  return num / std::sqrt(dx * dy);
}

}  // namespace hcpp::sim
