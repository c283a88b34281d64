#include "okbench/okbench_trace.h"

#include <cstdio>

namespace okbench {

uint32_t SpanRecorder::NameId(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

bool SpanRecorder::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::vector<int64_t> self = SelfTimes(spans_);
  std::fprintf(f, "index,name,parent,start_ns,end_ns,self_ns,trace_id\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%d,%lld,%lld,%lld,%llu\n", i, names_[s.name].c_str(), s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]), static_cast<unsigned long long>(s.trace_id));
  }
  return std::fclose(f) == 0;
}

TracedCode::TracedCode(std::unique_ptr<asbestos::ProcessCode> inner, SpanRecorder* rec,
                       const std::string& process_name)
    : inner_(std::move(inner)),
      rec_(rec),
      start_id_(rec->NameId(process_name + ".start")),
      handle_id_(rec->NameId(process_name + ".handle")),
      idle_id_(rec->NameId(process_name + ".idle")) {}

void TracedCode::Start(asbestos::ProcessContext& ctx) {
  ScopedSpan span(rec_, start_id_, ctx.current_trace_id());
  inner_->Start(ctx);
}

void TracedCode::HandleMessage(asbestos::ProcessContext& ctx, const asbestos::Message& msg) {
  ScopedSpan span(rec_, handle_id_, ctx.current_trace_id());
  inner_->HandleMessage(ctx, msg);
}

void TracedCode::OnIdle(asbestos::ProcessContext& ctx) {
  ScopedSpan span(rec_, idle_id_, ctx.current_trace_id());
  inner_->OnIdle(ctx);
}

bool WrapProcess(asbestos::Kernel& kernel, const std::string& name, SpanRecorder* rec) {
  asbestos::Process* p = kernel.FindProcessByName(name);
  if (p == nullptr || p->code == nullptr) {
    return false;
  }
  p->code = std::make_unique<TracedCode>(std::move(p->code), rec, name);
  return true;
}

}  // namespace okbench
