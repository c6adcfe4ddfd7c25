#include "trace.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

namespace dnebench {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Innermost open span of the calling thread (its children's parent).
thread_local int t_open_span = -1;

}  // namespace

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const char* name, int parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent == -2 ? t_open_span : parent;
  s.outer = t_open_span;
  s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  s.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  t_open_span = static_cast<int>(spans_.size() - 1);
  return t_open_span;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
  t_open_span = spans_[static_cast<std::size_t>(id)].outer;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.thread % 100000),
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(end - s.start_ns) / 1e3, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace dnebench
