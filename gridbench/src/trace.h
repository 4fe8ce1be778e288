#pragma once

// Span recording for the traced run. Every span wraps one call from the
// benchmark into a public function of one layer (a GridNode callback, a
// scheme session call, TcpTransport::send/run, DurableReputationLedger::
// record). Spans carry their name, start, end, parent, and the request id
// (wave, task id) of the work they belong to. They are kept in memory per
// thread and written out once the run ends; self time — a span's duration
// minus the part its child spans cover — is aggregated as spans close.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace gridbench {

enum class SpanName : std::uint8_t {
  kWave,               // one closed-loop wave on the supervisor thread
  kNetRun,             // TcpTransport::run on the supervisor thread
  kSupervisorGrid,     // SupervisorNode construction, start, callbacks
  kSupervisorScheme,   // SupervisorSession open / on_message
  kSupervisorSend,     // TcpTransport::send from the supervisor
  kStoreRecord,        // DurableReputationLedger::record
  kParticipantGrid,    // ParticipantNode callbacks
  kParticipantCommit,  // VerificationScheme::open_participant
  kParticipantProve,   // ParticipantSession on_message / next_message
  kParticipantSend,    // TcpTransport::send from a participant
  kCount,
};

inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kCount);

const char* to_string(SpanName name);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time of the calling thread (a syscall: call it per wave, not per
// message).
std::int64_t thread_cpu_ns();
// CPU time of the whole process, every thread that ever ran included.
std::int64_t process_cpu_ns();

// Starts (active) or stops recording on the calling thread; spans opened
// while active carry `wave` in their request id.
void trace_wave(bool active, std::uint32_t wave);

// RAII span. A no-op unless the calling thread is recording.
class Span {
 public:
  Span(SpanName name, std::uint64_t task);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Wall time covered by this span's closed children so far.
  std::int64_t child_ns() const;

 private:
  struct ThreadTrace* trace_;
};

struct TraceTotals {
  std::array<std::int64_t, kSpanNames> self_ns{};
  std::array<std::uint64_t, kSpanNames> calls{};
  std::uint64_t spans_kept = 0;
  std::uint64_t spans_dropped = 0;  // beyond the per-thread span cap
};

// Sums every thread's aggregates. Call only after every recording thread
// other than the caller has been joined.
TraceTotals trace_totals();

// Writes every kept span as TSV (thread, id, parent, name, wave, task,
// start_ns, end_ns; times relative to the first span). Same precondition
// as trace_totals().
void write_spans(const std::string& path);

}  // namespace gridbench
