#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// Timing probes the perf benchmark places at layer boundaries it owns.
///
/// Two kinds of record, both kept in memory until the process ends:
///  - counters bumped by wrappers that run on simulation threads (sense
///    predicates, context method bodies). Each thread bumps its own block;
///    blocks are summed only after the threads stop running events.
///  - spans (name, start, end, parent) for setup phases, run_until slices,
///    store calls and sampled queries, written at exit as Chrome
///    trace-event JSON.
namespace et::perf {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Per-thread wrapper counters. Only the owning thread writes a block.
struct LayerCounters {
  std::uint64_t sense_calls = 0;
  std::uint64_t sense_true = 0;
  std::uint64_t sense_ns = 0;
  std::uint64_t method_calls = 0;
  std::uint64_t method_ns = 0;
};

/// The calling thread's block (registered on first use).
LayerCounters& thread_counters();

/// Sum over every thread that ever bumped a counter. Call only while no
/// thread is writing (between run_until calls).
LayerCounters sum_counters();

/// Spans recorded by one thread. `parent` is the id of the span that
/// caused this one (any thread's), or -1.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;
};

class SpanBuffer {
 public:
  SpanBuffer(std::uint32_t tid, std::size_t reserve) : tid_(tid) {
    spans_.reserve(reserve);
  }

  /// Records a finished span and returns its id.
  std::int64_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1) {
    spans_.push_back(Span{name, start_ns, end_ns, parent});
    return id_of(spans_.size() - 1);
  }

  /// Opens a span whose end is filled in by close().
  std::int64_t open(const char* name, std::int64_t parent = -1) {
    return add(name, now_ns(), 0, parent);
  }
  void close(std::int64_t id) {
    spans_[static_cast<std::size_t>(id & 0xffffffff)].end_ns = now_ns();
  }

  std::uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t id_of(std::size_t index) const {
    return (static_cast<std::int64_t>(tid_) << 32) |
           static_cast<std::int64_t>(index);
  }

  std::uint32_t tid_;
  std::vector<Span> spans_;
};

/// Writes every span as a Chrome trace-event ("X" phase) JSON file,
/// timestamps relative to `origin_ns`. Returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuffer*>& buffers,
                        std::int64_t origin_ns);

/// CPU seconds (user + system) of each live thread of this process, from
/// /proc/self/task/*/stat, excluding the main thread.
std::vector<double> worker_thread_cpu_s();

/// CPU seconds (user + system) consumed by this process so far.
double process_cpu_s();

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace et::perf
