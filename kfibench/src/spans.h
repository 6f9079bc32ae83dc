// In-memory span recorder for the traced benchmark run.  Spans are
// opened and closed around calls into kfi's public layers, kept in a
// vector, and written out once as JSON lines when the process ends, so
// recording costs one clock read and one push per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace kfibench {

// Nanoseconds on the monotonic clock (the clock Python's
// time.monotonic_ns() reads, so a parent can pass its spawn instant).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int id = 0;
  int parent = -1;
  int campaign = -1;  // campaign slot, -1 outside a campaign
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  // Injection spans only: the result's spec index, its outcome and the
  // simulated cycles the caller's Injector accrued during the run.
  std::int64_t spec_index = -1;
  std::string outcome;
  std::uint64_t pre_cycles = 0;
  std::uint64_t post_cycles = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span starting now (or at `start_ns`) and returns its id;
  // returns -1 when tracing is off.
  int open(const std::string& name, int parent, int campaign = -1,
           std::int64_t start_ns = 0) {
    if (!enabled_) return -1;
    Span span;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.campaign = campaign;
    span.name = name;
    span.start_ns = start_ns != 0 ? start_ns : now_ns();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void close(int id, std::int64_t end_ns = 0) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns =
        end_ns != 0 ? end_ns : now_ns();
  }

  Span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }
  std::vector<Span>& spans() { return spans_; }

  // Writes every span as one JSON object per line, times relative to
  // `origin_ns`.  Returns false when the file cannot be written.
  bool write(const std::string& path, std::int64_t origin_ns) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(out,
                   "{\"id\": %d, \"parent\": %d, \"campaign\": %d, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld",
                   s.id, s.parent, s.campaign, s.name.c_str(),
                   static_cast<long long>(s.start_ns - origin_ns),
                   static_cast<long long>(s.end_ns - origin_ns));
      if (s.spec_index >= 0) {
        std::fprintf(out,
                     ", \"spec_index\": %lld, \"outcome\": \"%s\", "
                     "\"pre_cycles\": %llu, \"post_cycles\": %llu",
                     static_cast<long long>(s.spec_index), s.outcome.c_str(),
                     static_cast<unsigned long long>(s.pre_cycles),
                     static_cast<unsigned long long>(s.post_cycles));
      }
      std::fprintf(out, "}\n");
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

}  // namespace kfibench
