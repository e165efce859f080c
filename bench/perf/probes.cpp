#include "probes.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/json.hpp"

namespace et::perf {

namespace {

std::mutex registry_mutex;
std::vector<std::unique_ptr<LayerCounters>>& registry() {
  static std::vector<std::unique_ptr<LayerCounters>> blocks;
  return blocks;
}

}  // namespace

LayerCounters& thread_counters() {
  thread_local LayerCounters* mine = [] {
    std::lock_guard lock(registry_mutex);
    registry().push_back(std::make_unique<LayerCounters>());
    return registry().back().get();
  }();
  return *mine;
}

LayerCounters sum_counters() {
  std::lock_guard lock(registry_mutex);
  LayerCounters total;
  for (const auto& block : registry()) {
    total.sense_calls += block->sense_calls;
    total.sense_true += block->sense_true;
    total.sense_ns += block->sense_ns;
    total.method_calls += block->method_calls;
    total.method_ns += block->method_ns;
  }
  return total;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanBuffer*>& buffers,
                        std::int64_t origin_ns) {
  util::Json events = util::Json::array();
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      util::Json event = util::Json::object();
      event.set("name", span.name);
      event.set("ph", "X");
      event.set("pid", 1);
      event.set("tid", static_cast<std::int64_t>(buffer->tid()));
      event.set("ts", static_cast<double>(span.start_ns - origin_ns) / 1e3);
      event.set("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      util::Json args = util::Json::object();
      args.set("id", (static_cast<std::int64_t>(buffer->tid()) << 32) |
                         static_cast<std::int64_t>(i));
      args.set("parent", span.parent);
      event.set("args", std::move(args));
      events.push_back(std::move(event));
    }
  }
  util::Json doc = util::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream out(path, std::ios::binary);
  out << doc.dump();
  return static_cast<bool>(out);
}

std::vector<double> worker_thread_cpu_s() {
  std::vector<double> cpu;
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  const std::string self = std::to_string(getpid());
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    if (entry.path().filename() == self) continue;
    std::ifstream in(entry.path() / "stat");
    std::string line;
    if (!std::getline(in, line)) continue;
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    std::uint64_t utime = 0;
    std::uint64_t stime = 0;
    for (int index = 3; index <= 15 && rest >> field; ++index) {
      if (index == 14) utime = std::stoull(field);
      if (index == 15) stime = std::stoull(field);
    }
    cpu.push_back(static_cast<double>(utime + stime) / ticks);
  }
  return cpu;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace et::perf
