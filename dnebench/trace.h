// Span recorder of the benchmark's traced run. Spans are recorded by the
// benchmark's own code around each call into a library layer (the library
// itself is not instrumented). Each span has a name, a start, an end, an id
// and the id of the span that was open on the same thread when it began.
// Spans stay in memory and are written once, at exit, as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto).
#ifndef DNEBENCH_TRACE_H_
#define DNEBENCH_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dnebench {

class Tracer {
 public:
  /// Recording is off until Enable(true); a disabled Begin returns -1 and
  /// End(-1) is a no-op, so untraced runs pay one branch per call site.
  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span whose parent is the calling thread's innermost open span,
  /// or `parent` when given (a span begun on another thread, such as the
  /// client request a server worker executes).
  int Begin(const char* name, int parent = -2);
  void End(int id);

  std::size_t size() const;
  /// Writes every recorded span; returns false when the file cannot be
  /// written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    int outer = -1;  // the thread's open span when this one began
    std::uint64_t thread = 0;
  };

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// The process-wide recorder.
Tracer& GlobalTracer();

/// RAII span on the global recorder.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int parent = -2)
      : id_(GlobalTracer().Begin(name, parent)) {}
  ~ScopedSpan() { GlobalTracer().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  int id_;
};

}  // namespace dnebench

#endif  // DNEBENCH_TRACE_H_
