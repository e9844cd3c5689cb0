#include "spans.h"

#include <fstream>
#include <stdexcept>

namespace perfbench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled),
      recording_(enabled),
      epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::uint64_t SpanLog::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::int32_t SpanLog::begin(const char* name) {
  if (!recording_) return -1;
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now_ns(), 0, parent});
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::end(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanLog::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.end_ns >= s.start_ns && s.end_ns != 0 && name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("spans: cannot write " + path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, "
       << "\"tid\": 1, \"ts\": " << static_cast<double>(s.start_ns) / 1e3
       << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

}  // namespace perfbench
