// Statistics and oracle checks shared by the workloads, plus the open-loop
// request generator. Everything here is pure logic with its own tests
// (perfbench/tests/test_harness.cpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

namespace perfbench {

/// Samples a percentile must have strictly beyond it to be reported.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`, reported only
/// when at least kTailSamples samples lie beyond its rank; nullopt
/// otherwise.
std::optional<double> percentile(std::vector<double> samples, double p);

/// Smallest sample count for which `percentile(samples, p)` reports.
std::size_t min_samples_for(double p);

/// Lower median of `samples` (repeat-statistics of a handful of cold
/// builds, where no tail rule applies). Requires a non-empty input.
double median(std::vector<double> samples);

/// Per-operation relative 2-norm errors against the oracle. The summary is
/// their median: a pooled sum of squares over many operations is dominated
/// by the few sampled targets that sit next to a source (|phi| ~ 1/r), and
/// moved by 20-50 % between seeds.
class ErrorLog {
 public:
  void add(double err) { errors_.push_back(err); }
  double median() const;
  std::size_t ops() const { return errors_.size(); }

 private:
  std::vector<double> errors_;
};

/// Relative 2-norm error of sampled values against the oracle's; infinite
/// when the sizes differ.
double sampled_error(std::span<const double> exact,
                     std::span<const double> approx);

/// The a-priori treecode error bound theta^(n+1) / (1 - theta).
double apriori_bound(double theta, int degree);

/// Oracle gate: a result passes when its relative error against the oracle
/// is finite and within the a-priori bound.
bool within_bound(double rel_err, double bound);

/// Whether two results are identical bit for bit.
bool bit_identical(std::span<const double> a, std::span<const double> b);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Timestamps of one open-loop run, in seconds since its start.
template <typename R>
struct OpenLoopRun {
  std::vector<double> scheduled;  ///< when request i was due to be sent
  std::vector<double> sent;       ///< when the generator actually sent it
  std::vector<double> done;       ///< when its result was observed
  std::vector<R> results;
  std::vector<std::exception_ptr> errors;  ///< null on success

  /// Latency of request i, timed from its scheduled send so that a stall
  /// charges the wait it imposes on every later request.
  double latency(std::size_t i) const { return done[i] - scheduled[i]; }
  /// How late the generator sent request i.
  double lateness(std::size_t i) const { return sent[i] - scheduled[i]; }
};

/// Send `n` requests at a fixed `rate` (per second) regardless of how fast
/// they complete: request i is due at i / rate. `submit(i)` returns a
/// std::future<R>; one collector thread waits on the futures in send order.
template <typename R, typename Submit>
OpenLoopRun<R> run_open_loop(std::size_t n, double rate, Submit&& submit) {
  using Clock = std::chrono::steady_clock;
  OpenLoopRun<R> run;
  run.scheduled.resize(n);
  run.sent.resize(n);
  run.done.resize(n);
  run.results.resize(n);
  run.errors.resize(n);
  std::vector<std::future<R>> futures(n);
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t published = 0;

  const Clock::time_point start = Clock::now();
  const auto since_start = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return published > i; });
      }
      try {
        run.results[i] = futures[i].get();
      } catch (...) {
        run.errors[i] = std::current_exception();
      }
      run.done[i] = since_start();
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    run.scheduled[i] = static_cast<double>(i) / rate;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(run.scheduled[i])));
    run.sent[i] = since_start();
    std::future<R> future;
    try {
      future = submit(i);
    } catch (...) {
      std::promise<R> failed;
      failed.set_exception(std::current_exception());
      future = failed.get_future();
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      futures[i] = std::move(future);
      published = i + 1;
    }
    cv.notify_one();
  }
  collector.join();
  return run;
}

}  // namespace perfbench
