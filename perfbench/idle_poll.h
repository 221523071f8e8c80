// Keeps every CPU of a virtual machine from halting while a phase is
// measured.
//
// On a VM, a vCPU with nothing to run halts, and waking it again goes
// through the host scheduler: tens of microseconds on a quiet host,
// milliseconds on a busy one. Served queries hand off between client and
// server threads twice per request, so that wake-up cost, not fro, set
// the run-to-run spread of the serve workloads (on a 4-vCPU VM, closed-
// loop throughput of serve_hot read 2900-4200 req/s without pollers and
// 7200-7500 with them in alternating runs). An IdlePoller runs one
// SCHED_IDLE spinning thread per CPU. The kernel runs such a thread only
// when nothing else is runnable and preempts it as soon as a real thread
// wakes; it keeps the vCPU from halting, as `idle=poll` would. The
// analytic workloads do not use it: they rarely hand off, and a spinner
// on a sibling hyperthread slowed them by a few percent.

#ifndef PERFBENCH_IDLE_POLL_H_
#define PERFBENCH_IDLE_POLL_H_

#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

class IdlePoller {
 public:
  explicit IdlePoller(unsigned threads);
  ~IdlePoller();

  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_IDLE_POLL_H_
