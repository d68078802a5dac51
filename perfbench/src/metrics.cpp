#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/stats.hpp"

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile p among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::optional<double> percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nullopt;
  const std::size_t rank = nearest_rank(samples.size(), p);
  if (samples.size() - rank < kTailSamples) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t min_samples_for(double p) {
  std::size_t n = kTailSamples + 1;
  while (n - nearest_rank(n, p) < kTailSamples) ++n;
  return n;
}

double median(std::vector<double> samples) {
  const std::size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  return samples[mid];
}

double sampled_error(std::span<const double> exact,
                     std::span<const double> approx) {
  return exact.size() == approx.size() ? bltc::relative_l2_error(exact, approx)
                                       : INFINITY;
}

double ErrorLog::median() const { return perfbench::median(errors_); }

double apriori_bound(double theta, int degree) {
  return std::pow(theta, degree + 1) / (1.0 - theta);
}

bool within_bound(double rel_err, double bound) {
  return std::isfinite(rel_err) && rel_err <= bound;
}

bool bit_identical(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
