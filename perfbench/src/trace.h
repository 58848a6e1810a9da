// In-memory span tracing for the benchmark driver. Spans are recorded from
// the driver's own code, around its calls into each layer's public
// functions; nothing inside src/ is instrumented.
//
// Each thread that records spans owns a ThreadTrace (no locking on the
// record path); its spans move into the shared Tracer when it is
// destroyed, and the Tracer writes them out once the run ends. A null
// ThreadTrace* or a ThreadTrace over a null Tracer records nothing, which
// is how untraced runs pay (almost) nothing.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary process epoch.
int64_t NowNs();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 for a root span.
  uint64_t request = 0;  // Shared by every span of one request; 0 = none.
  const char* name = "";  // Static string.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Owner of every finished span of a run.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A fresh thread index; span ids are unique across threads.
  uint64_t NextThreadIndex();
  void Absorb(std::vector<Span>* spans);

  /// Every span absorbed so far (call after the recording threads ended).
  std::vector<Span> spans() const;

  /// Writes one tab-separated line per span: id, parent, request, name,
  /// start_ns, end_ns (with a header line).
  bool WriteTsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  uint64_t threads_ = 0;
  std::vector<Span> spans_;
};

/// One thread's span recorder.
class ThreadTrace {
 public:
  explicit ThreadTrace(Tracer* tracer);
  ~ThreadTrace();
  ThreadTrace(const ThreadTrace&) = delete;
  ThreadTrace& operator=(const ThreadTrace&) = delete;

  bool enabled() const { return tracer_ != nullptr; }

  /// Opens a span nested in the innermost open one. `request` != 0 starts
  /// a new request id; 0 inherits the parent's.
  void Begin(const char* name, uint64_t request = 0);
  void End();

  /// Records an already finished root span, for intervals that do not
  /// nest on one call stack (a pipelined request's send and reply).
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request);

 private:
  Tracer* tracer_;
  uint64_t id_base_ = 0;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // Indices into spans_ of the open spans.
};

/// RAII span; a null trace or a disabled one records nothing.
class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace* trace, const char* name, uint64_t request = 0)
      : trace_(trace != nullptr && trace->enabled() ? trace : nullptr) {
    if (trace_ != nullptr) trace_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
};

/// Per span name: how many spans, their summed duration, and their summed
/// self time — a span's duration minus the part of it that its child
/// spans cover (overlapping children are counted once).
struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;

  double MeanUs() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) * 1e-3 /
                                  static_cast<double>(count);
  }
};
std::map<std::string, SpanTotals> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
