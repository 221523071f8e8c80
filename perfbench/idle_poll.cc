#include "idle_poll.h"

#include <pthread.h>
#include <sched.h>

namespace perfbench {

IdlePoller::IdlePoller(unsigned threads) {
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      // Without SCHED_IDLE the spinner would compete with the measured
      // threads, so it does not spin at all.
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdlePoller::~IdlePoller() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

}  // namespace perfbench
