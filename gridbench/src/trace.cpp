#include "trace.h"

#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace gridbench {

namespace {

// Enough for several seconds of the busiest workload; later spans still
// feed the aggregates but are not kept for the span file.
constexpr std::size_t kMaxKeptSpansPerThread = 1u << 17;

struct SpanRecord {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t task;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t wave;
  SpanName name;
};

struct OpenSpan {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t task;
  std::int64_t start_ns;
  std::int64_t child_ns;
  SpanName name;
};

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

struct ThreadTrace {
  std::uint64_t thread = 0;
  std::uint64_t next_id = 1;
  std::uint32_t wave = 0;
  std::vector<OpenSpan> open;
  std::vector<SpanRecord> kept;
  std::uint64_t dropped = 0;
  std::array<std::int64_t, kSpanNames> self_ns{};
  std::array<std::uint64_t, kSpanNames> calls{};
};

namespace {

std::mutex registry_mutex;
std::vector<std::unique_ptr<ThreadTrace>> registry;  // guarded by the mutex

thread_local ThreadTrace* tl_owned = nullptr;
thread_local ThreadTrace* tl_active = nullptr;

ThreadTrace* owned_trace() {
  if (tl_owned == nullptr) {
    const std::lock_guard<std::mutex> lock(registry_mutex);
    registry.push_back(std::make_unique<ThreadTrace>());
    tl_owned = registry.back().get();
    tl_owned->thread = registry.size();
    tl_owned->open.reserve(16);
  }
  return tl_owned;
}

}  // namespace

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kWave: return "wave";
    case SpanName::kNetRun: return "net.run";
    case SpanName::kSupervisorGrid: return "grid.supervisor";
    case SpanName::kSupervisorScheme: return "scheme.supervisor";
    case SpanName::kSupervisorSend: return "net.send.supervisor";
    case SpanName::kStoreRecord: return "store.record";
    case SpanName::kParticipantGrid: return "grid.participant";
    case SpanName::kParticipantCommit: return "scheme.participant_commit";
    case SpanName::kParticipantProve: return "scheme.participant_prove";
    case SpanName::kParticipantSend: return "net.send.participant";
    case SpanName::kCount: break;
  }
  return "?";
}

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

void trace_wave(bool active, std::uint32_t wave) {
  if (!active) {
    tl_active = nullptr;
    return;
  }
  ThreadTrace* trace = owned_trace();
  trace->wave = wave;
  tl_active = trace;
}

Span::Span(SpanName name, std::uint64_t task) : trace_(tl_active) {
  if (trace_ == nullptr) {
    return;
  }
  const std::uint64_t parent =
      trace_->open.empty() ? 0 : trace_->open.back().id;
  const std::uint64_t id = (trace_->thread << 40) | trace_->next_id++;
  trace_->open.push_back(OpenSpan{id, parent, task, now_ns(), 0, name});
}

Span::~Span() {
  if (trace_ == nullptr) {
    return;
  }
  const std::int64_t end = now_ns();
  const OpenSpan span = trace_->open.back();
  trace_->open.pop_back();
  const std::int64_t duration = end - span.start_ns;
  const auto slot = static_cast<std::size_t>(span.name);
  trace_->self_ns[slot] += duration - span.child_ns;
  ++trace_->calls[slot];
  if (!trace_->open.empty()) {
    trace_->open.back().child_ns += duration;
  }
  if (trace_->kept.size() < kMaxKeptSpansPerThread) {
    trace_->kept.push_back(SpanRecord{span.id, span.parent, span.task,
                                      span.start_ns, end, trace_->wave,
                                      span.name});
  } else {
    ++trace_->dropped;
  }
}

std::int64_t Span::child_ns() const {
  return trace_ == nullptr ? 0 : trace_->open.back().child_ns;
}

TraceTotals trace_totals() {
  const std::lock_guard<std::mutex> lock(registry_mutex);
  TraceTotals totals;
  for (const auto& trace : registry) {
    for (std::size_t i = 0; i < kSpanNames; ++i) {
      totals.self_ns[i] += trace->self_ns[i];
      totals.calls[i] += trace->calls[i];
    }
    totals.spans_kept += trace->kept.size();
    totals.spans_dropped += trace->dropped;
  }
  return totals;
}

void write_spans(const std::string& path) {
  const std::lock_guard<std::mutex> lock(registry_mutex);
  std::int64_t origin = 0;
  for (const auto& trace : registry) {
    for (const SpanRecord& span : trace->kept) {
      if (origin == 0 || span.start_ns < origin) {
        origin = span.start_ns;
      }
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot write span file " + path);
  }
  out << "thread\tid\tparent\tname\twave\ttask\tstart_ns\tend_ns\n";
  for (const auto& trace : registry) {
    for (const SpanRecord& span : trace->kept) {
      out << trace->thread << '\t' << span.id << '\t' << span.parent << '\t'
          << to_string(span.name) << '\t' << span.wave << '\t' << span.task
          << '\t' << span.start_ns - origin << '\t' << span.end_ns - origin
          << '\n';
    }
  }
}

}  // namespace gridbench
