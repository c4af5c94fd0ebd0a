// In-memory spans recorded from the benchmark's own code around calls
// into the library, written out at exit as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing).
#pragma once

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  const char* name = "";  // string literal
  long long start_ns = 0;
  long long end_ns = 0;
  long long id = 0;
  long long parent = 0;      // 0 = root
  long long request = -1;    // request id, -1 = none
  int track = 0;             // Chrome "tid": one lane per recording site
};

// Tracks (Chrome trace lanes).
enum Track : int {
  kTrackGenerator = 1,
  kTrackCollector = 2,
  kTrackStream = 3,
  kTrackScheduler = 4,
  kTrackLayers = 5,
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve) { spans_.reserve(reserve); }

  // Span ids are unique per log; 0 is reserved for "no parent".
  long long next_id() { return ++last_id_; }

  long long add(const char* name, long long start_ns, long long end_ns,
                long long parent, long long request, int track) {
    Span s;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.id = next_id();
    s.parent = parent;
    s.request = request;
    s.track = track;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
    return s.id;
  }

  // Records a span whose id was taken earlier (a parent whose end is
  // known only after its children).
  void add_with_id(const Span& s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
  }

  std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  // Chrome trace-event JSON: one complete ("X") event per span, times in
  // microseconds from the earliest span.  Parent and request ids ride in
  // args.  Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    const std::vector<Span> spans = snapshot();
    long long t0 = 0;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (i == 0 || spans[i].start_ns < t0) t0 = spans[i].start_ns;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    static const char* kTrackNames[] = {"", "generator", "collector",
                                        "stream", "scheduler", "layers"};
    for (int t = 1; t <= 5; ++t)
      std::fprintf(f,
                   "%s\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                   "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                   t == 1 ? "" : ",", t, kTrackNames[t]);
    for (const Span& s : spans)
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%lld,"
                   "\"parent\":%lld,\"request\":%lld}}",
                   s.name, s.track,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                   s.parent, s.request);
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<long long> last_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace servebench
