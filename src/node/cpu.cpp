#include "node/cpu.hpp"

#include <cassert>
#include <utility>

namespace et::node {

bool Cpu::post(Duration cost, std::function<void()> fn) {
  assert(!cost.is_negative());
  stats_.posted++;
  if (queue_.size() >= config_.queue_capacity) {
    stats_.dropped++;
    return false;
  }
  Task task{cost, std::move(fn)};
  if (running_) {
    queue_.push_back(std::move(task));
  } else {
    run(std::move(task));
  }
  return true;
}

void Cpu::start_next() {
  if (queue_.empty()) {
    running_ = false;
    return;
  }
  Task task = std::move(queue_.front());
  queue_.pop_front();
  run(std::move(task));
}

void Cpu::run(Task task) {
  running_ = true;
  stats_.busy += task.cost;
  // The task's effects become visible when its service time elapses; the
  // next task then starts immediately (run-to-completion scheduling).
  sim_.schedule(task.cost, [this, fn = std::move(task.fn)]() {
    stats_.executed++;
    fn();
    start_next();
  });
}

}  // namespace et::node
