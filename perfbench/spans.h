// In-memory span log for perfbench's traced mode.
//
// A span is one timed call from the benchmark into a public function of
// one layer (module) of the library: name, layer, start, end, and the
// span that was open on the same thread when it began (its parent).
// Spans stay in memory while the benchmark runs; at exit they are
// rolled up into per-layer self time (a span's duration minus what its
// child spans cover) and written as Chrome trace-event JSON, which any
// trace viewer (chrome://tracing, Perfetto) opens.
//
// Recording is off unless the run asked for --trace 1, so the
// end-to-end figures are measured without it; a disabled Span costs one
// relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* layer = "";  // module the call belongs to (api, pipeline, ...)
  const char* name = "";   // the public call, e.g. "Pipeline::Create"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index of the enclosing span; -1 = none
  uint32_t tid = 0;     // small per-thread number, for the trace viewer
};

class SpanLog {
 public:
  static SpanLog& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Opens a span on the calling thread and returns its index.
  int64_t Begin(const char* layer, const char* name);
  void End(int64_t index);

  // Self time per layer, seconds: each span's duration minus the part
  // of it its child spans cover, summed by layer.
  std::map<std::string, double> SelfSecondsByLayer() const;
  // Writes {"traceEvents": [...], "metadata": <metadata_json>}. Returns
  // false if the file cannot be written.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata_json) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span; a no-op while the log is disabled.
class Span {
 public:
  Span(const char* layer, const char* name)
      : index_(SpanLog::Get().enabled() ? SpanLog::Get().Begin(layer, name)
                                        : -1) {}
  ~Span() {
    if (index_ >= 0) SpanLog::Get().End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const int64_t index_;
};

}  // namespace perfbench
