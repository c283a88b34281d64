// Bench-side tracing: an in-memory span recorder and a ProcessCode
// decorator that times every call the kernel makes into a wrapped process.
// Nothing here touches the simulator's own state, so a traced run charges
// exactly the cycles and counts of an untraced one.
#ifndef OKBENCH_OKBENCH_TRACE_H_
#define OKBENCH_OKBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "okbench/okbench_stats.h"
#include "src/kernel/kernel.h"

namespace okbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  // Interns a span name; ids index names().
  uint32_t NameId(const std::string& name);

  void Begin(uint32_t name, uint64_t trace_id) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.trace_id = trace_id;
    open_.push_back(static_cast<int32_t>(spans_.size()));
    spans_.push_back(s);
    // Stamp last, so the span's own bookkeeping is outside its duration.
    spans_.back().start_ns = NowNs();
  }
  void End() {
    const int64_t now = NowNs();
    spans_[static_cast<size_t>(open_.back())].end_ns = now;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  // One line per span: index,name,parent,start_ns,end_ns,self_ns,trace_id.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Times a call as one span; the scope is the span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, uint32_t name, uint64_t trace_id = 0) : rec_(rec) {
    rec_->Begin(name, trace_id);
  }
  ~ScopedSpan() { rec_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

// Forwards every ProcessCode entry point to the wrapped code and records a
// span named "<process>.start" / ".handle" / ".idle" around each call.
class TracedCode : public asbestos::ProcessCode {
 public:
  TracedCode(std::unique_ptr<asbestos::ProcessCode> inner, SpanRecorder* rec,
             const std::string& process_name);

  void Start(asbestos::ProcessContext& ctx) override;
  void HandleMessage(asbestos::ProcessContext& ctx, const asbestos::Message& msg) override;
  void OnIdle(asbestos::ProcessContext& ctx) override;
  bool HasOnIdle() const override { return inner_->HasOnIdle(); }

 private:
  std::unique_ptr<asbestos::ProcessCode> inner_;
  SpanRecorder* rec_;
  uint32_t start_id_;
  uint32_t handle_id_;
  uint32_t idle_id_;
};

// Replaces the code of the named process with a TracedCode around it.
// False when no such process exists.
bool WrapProcess(asbestos::Kernel& kernel, const std::string& name, SpanRecorder* rec);

}  // namespace okbench

#endif  // OKBENCH_OKBENCH_TRACE_H_
