#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace pipette {

unsigned default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t n, unsigned jobs,
                  const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) jobs = default_threads();
  const std::size_t threads = std::min<std::size_t>(jobs, n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  {
    // jthreads join on destruction, so a failed spawn still waits for the
    // threads already running before its exception leaves this scope.
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pipette
