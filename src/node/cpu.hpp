#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"
#include "util/fifo_queue.hpp"
#include "util/time.hpp"

/// The mote's processor, modelled after the TinyOS run-to-completion task
/// scheduler.
///
/// Every handler invocation (received frame, timer firing) is posted as a
/// task with a service-time cost; tasks execute sequentially from a bounded
/// queue. When load exceeds the processor's capacity the queue overflows and
/// tasks are dropped — this is the bottleneck the paper identifies in §6.2:
/// at very small heartbeat periods the maximum trackable speed *declines*,
/// and cross-traffic experiments show the cause is CPU processing, not
/// channel bandwidth.
namespace et::node {

struct CpuConfig {
  /// Service time for handling one received frame (protocol stack
  /// processing on a 4 MHz ATmega-class MCU is on the order of
  /// milliseconds).
  Duration rx_task_cost = Duration::millis(4);
  /// Service time for a timer-driven task (sensing + protocol step).
  Duration timer_task_cost = Duration::millis(2);
  /// TinyOS's task queue is small; overflow silently drops the post.
  std::size_t queue_capacity = 12;
};

class Cpu {
 public:
  struct Stats {
    std::uint64_t posted = 0;
    std::uint64_t executed = 0;
    std::uint64_t dropped = 0;  // queue overflow
    Duration busy = Duration::zero();

    /// Adds every counter of `other` (sums over motes).
    Stats& operator+=(const Stats& other) {
      posted += other.posted;
      executed += other.executed;
      dropped += other.dropped;
      busy += other.busy;
      return *this;
    }
  };

  /// `config` is deployment-wide and must outlive the CPU; a temporary
  /// cannot bind to it.
  Cpu(sim::Simulator& sim, const CpuConfig& config)
      : sim_(sim), config_(config) {}
  Cpu(sim::Simulator& sim, CpuConfig&& config) = delete;

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Posts a task costing `cost` of CPU time. Returns false (and drops the
  /// task) when the queue is full.
  bool post(Duration cost, std::function<void()> fn);

  /// Convenience posts using the configured costs.
  bool post_rx(std::function<void()> fn) {
    return post(config_.rx_task_cost, std::move(fn));
  }
  bool post_timer(std::function<void()> fn) {
    return post(config_.timer_task_cost, std::move(fn));
  }

  bool busy() const { return running_; }
  std::size_t queue_depth() const { return queue_.size(); }
  const Stats& stats() const { return stats_; }
  const CpuConfig& config() const { return config_; }

 private:
  struct Task {
    Duration cost;
    std::function<void()> fn;
  };

  /// Runs `task` now; when it completes, the next queued task starts.
  void run(Task task);
  void start_next();

  sim::Simulator& sim_;
  const CpuConfig& config_;
  /// Tasks waiting behind the running one. A post to an idle CPU starts
  /// right away and never touches the queue.
  FifoQueue<Task> queue_;
  bool running_ = false;
  Stats stats_;
};

}  // namespace et::node
