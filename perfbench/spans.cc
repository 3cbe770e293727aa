#include "spans.h"

#include <cstdio>

#include "src/util/cpu_timer.h"

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> open_spans;

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t number = next.fetch_add(1);
  return number;
}

void AppendJsonString(std::string* out, const char* text) {
  out->push_back('"');
  for (const char* c = text; *c != '\0'; ++c) {
    if (*c == '"' || *c == '\\') out->push_back('\\');
    out->push_back(*c);
  }
  out->push_back('"');
}

}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

int64_t SpanLog::Begin(const char* layer, const char* name) {
  SpanRecord record;
  record.layer = layer;
  record.name = name;
  record.parent = open_spans.empty() ? -1 : open_spans.back();
  record.tid = ThreadNumber();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int64_t>(spans_.size());
    record.start_ns = plumber::WallNanos();
    spans_.push_back(record);
  }
  open_spans.push_back(index);
  return index;
}

void SpanLog::End(int64_t index) {
  const int64_t now = plumber::WallNanos();
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::map<std::string, double> SpanLog::SelfSecondsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children nest inside their parent on the same thread, so the part
  // of a span its children cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0 && s.end_ns > 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns == 0) continue;
    out[s.layer] += (s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path,
                               const std::string& metadata_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  std::string line;
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.end_ns == 0) continue;
    line.clear();
    line += first ? "{\"name\":" : ",{\"name\":";
    first = false;
    AppendJsonString(&line, s.name);
    line += ",\"cat\":";
    AppendJsonString(&line, s.layer);
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                  s.tid, (s.start_ns - origin) * 1e-3,
                  (s.end_ns - s.start_ns) * 1e-3, i,
                  static_cast<long long>(s.parent));
    line += buf;
    std::fputs(line.c_str(), f);
  }
  std::fprintf(f, "],\"metadata\":%s}\n", metadata_json.c_str());
  return std::fclose(f) == 0;
}

}  // namespace perfbench
