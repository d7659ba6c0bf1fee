#include "trace.h"

#include <cstdio>

namespace perfbench {

void SchedCounters::EmitTo(std::map<std::string, double>& out,
                           double passes) const {
  const auto emit = [&out, passes](const char* hook, const Timer& t) {
    out[std::string("sched.") + hook + "_calls"] =
        static_cast<double>(t.calls) / passes;
    out[std::string("sched.") + hook + "_s"] = t.seconds() / passes;
  };
  emit("arrival", arrival);
  emit("ready", ready);
  emit("completion", completion);
  emit("remaining", remaining);
  emit("drop", drop);
  emit("pick", pick);
  emit("batch", batch);
  emit("admit", admit);
  const uint64_t rounds = pick.calls + batch.calls;
  out["sched.pick_idle_ratio"] =
      rounds ? static_cast<double>(pick_idle) / static_cast<double>(rounds)
             : 0.0;
  const double decided = static_cast<double>(admit.calls);
  out["sched.admit_reject_ratio"] =
      admit.calls ? static_cast<double>(admit_reject) / decided : 0.0;
  out["sched.admit_defer_ratio"] =
      admit.calls ? static_cast<double>(admit_defer) / decided : 0.0;
}

webtx::AdmissionFactory TimedAdmissionFactory(webtx::AdmissionFactory inner,
                                              SchedCounters* counters) {
  if (!inner) return nullptr;
  return [inner = std::move(inner), counters]() {
    return std::unique_ptr<webtx::AdmissionController>(
        std::make_unique<TimedAdmission>(inner(), counters));
  };
}

int32_t SpanLog::Begin(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, NanosSince(origin_), -1, parent});
  open_.push_back(id);
  return id;
}

void SpanLog::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NanosSince(origin_);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
