// In-memory span log for the traced benchmark run.
//
// A span is one call from the benchmark into a layer of the stack: a name,
// a start, an end (steady_clock ns since the log was created) and the span
// that was open when it began. Spans stay in memory and are written out
// once, as a Chrome trace_event JSON file, when the run ends. A disabled
// log records nothing, so the untraced run pays one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  // Pause recording (the untraced rounds of a traced run).
  void set_recording(bool on) { recording_ = enabled_ && on; }

  // Open a span under the innermost open one; returns its index, or -1
  // when not recording.
  std::int32_t begin(const char* name);
  void end(std::int32_t id);

  // Durations (ns) of every closed span with this name, in record order.
  std::vector<double> durations_ns(std::string_view name) const;

  // Chrome trace_event JSON ("X" complete events; args carry the parent).
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;  // static string (call-site literal)
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;  // index of the enclosing span, -1 = root
  };

  std::uint64_t now_ns() const;

  bool enabled_ = false;
  bool recording_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// RAII span: begin on construction, end on destruction.
class Scope {
 public:
  Scope(SpanLog& log, const char* name) : log_(log), id_(log.begin(name)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

}  // namespace perfbench
