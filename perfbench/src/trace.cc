#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::NextThreadIndex() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++threads_;
}

void Tracer::Absorb(std::vector<Span>* spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans->begin(), spans->end());
  spans->clear();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const Span& span : spans()) {
    std::fprintf(out, "%llu\t%llu\t%llu\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

ThreadTrace::ThreadTrace(Tracer* tracer) : tracer_(tracer) {
  if (tracer_ != nullptr) id_base_ = tracer_->NextThreadIndex() << 40;
}

ThreadTrace::~ThreadTrace() {
  if (tracer_ != nullptr) tracer_->Absorb(&spans_);
}

void ThreadTrace::Begin(const char* name, uint64_t request) {
  Span span;
  span.id = id_base_ | ++next_id_;
  span.name = name;
  if (!open_.empty()) {
    const Span& parent = spans_[open_.back()];
    span.parent = parent.id;
    span.request = parent.request;
  }
  if (request != 0) span.request = request;
  open_.push_back(spans_.size());
  span.start_ns = NowNs();
  spans_.push_back(span);
}

void ThreadTrace::End() {
  spans_[open_.back()].end_ns = NowNs();
  open_.pop_back();
}

void ThreadTrace::Record(const char* name, int64_t start_ns, int64_t end_ns,
                         uint64_t request) {
  if (tracer_ == nullptr) return;
  Span span;
  span.id = id_base_ | ++next_id_;
  span.request = request;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::map<std::string, SpanTotals> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans) {
    SpanTotals& entry = totals[span.name];
    const int64_t duration = span.end_ns - span.start_ns;
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to this span.
      std::vector<std::pair<int64_t, int64_t>>& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = span.start_ns;
      for (const auto& [begin, end] : intervals) {
        const int64_t lo = std::max(begin, cursor);
        const int64_t hi = std::min(end, span.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    entry.count += 1;
    entry.total_ns += duration;
    entry.self_ns += duration - covered;
  }
  return totals;
}

}  // namespace perfbench
