#pragma once

// The closed loop of waves. One process hosts the supervisor stack exactly
// as gridd wires it (authenticated TcpTransport on its default engine and
// loop count, a SupervisorNode per wave, a DurableReputationLedger over the
// file store) and W authenticated ParticipantNode clients, each on its own
// thread with its own TcpTransport over loopback. Each of the W connections
// holds K tasks per wave; the next wave, with fresh plan seeds and a fresh
// slice of the domain, starts only once every verdict of the current wave
// is settled. Connections persist across waves: the supervisor swaps nodes
// through TcpTransport::clear_local/add_local, and each client starts a
// fresh ParticipantNode when the next wave's first assignment arrives
// (task ids restart at 1 every wave, and a ParticipantNode drops an id it
// has already seen).

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheme_config.h"
#include "trace.h"

namespace gridbench {

struct WorkloadSpec {
  std::size_t workers = 1;           // W connections / client threads
  std::size_t tasks_per_worker = 1;  // K tasks in flight per connection
  std::uint64_t points = 64;         // n inputs per task
  ugc::SchemeConfig scheme;
  bool first_worker_cheats = false;  // worker 0 is semi-honest, r = 0.5
};

struct RunOptions {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 10;
  // Tests: exactly this many measured waves after one warm-up wave,
  // instead of a measured window of `seconds`.
  std::size_t waves = 0;
  bool trace = false;
  std::string state_dir;  // created, used, and removed by the run
};

// Counters summed over the measured waves of one kind (untraced or traced).
struct WaveTotals {
  std::size_t waves = 0;
  std::uint64_t verdicts = 0;
  std::int64_t wall_ns = 0;
  std::int64_t supervisor_cpu_ns = 0;  // the protocol thread
  std::int64_t process_cpu_ns = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t write_calls = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t messages = 0;  // NetworkStats, both directions
  std::uint64_t bytes = 0;
  std::uint64_t supervisor_f_evals = 0;
  std::uint64_t participant_f_evals = 0;
  std::int64_t transport_self_ns = 0;  // traced waves only
};

struct Checks {
  std::uint64_t tasks_assigned = 0;
  std::uint64_t honest_accused = 0;
  std::uint64_t aborted = 0;
  std::uint64_t missing = 0;
  std::uint64_t cheater_accepted = 0;
  std::uint64_t cheater_tasks = 0;
  std::vector<std::string> errors;

  std::uint64_t failed() const {
    return honest_accused + aborted + missing + cheater_accepted;
  }
  bool correct() const { return failed() == 0 && errors.empty(); }
};

// Verdict latencies in log-spaced buckets 1% wide from 1 us to about 20 s.
// Its memory is fixed however many verdicts a run settles, so peak_rss_mb
// measures the grid, not the benchmark's bookkeeping.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void add(double ms);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  // Nearest-rank percentile, placed inside its bucket by its rank among
  // the bucket's samples (0 when empty).
  double percentile(double p) const;

 private:
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
};

// Consecutive untraced measured waves spanning a second, or a tenth of a
// shorter measured window. End-to-end metrics are medians over blocks, so a
// burst of outside load during one block does not move them.
struct Block {
  WaveTotals totals;
  LatencyHistogram latency;
};

struct RunReport {
  std::vector<double> setup_s;
  std::vector<double> handshake_ms;
  std::vector<Block> blocks;
  WaveTotals untraced;
  WaveTotals traced;
  Checks checks;
  std::uint64_t store_syncs = 0;  // traced runs only
  std::string engine;             // the resolved event engine
  std::int64_t peak_rss_kb = 0;
  // Share of the host's CPU time stolen by the hypervisor during the
  // measured window (/proc/stat; 0 where the kernel does not report it):
  // outside load that no statistic inside the run can remove.
  double host_steal_ratio = 0;
};

class ExchangeLog;
class MessageSample;

// The seed of the workload's f in a run with this seed.
std::uint64_t workload_seed(std::uint64_t seed);

// Runs the loop. With options.trace, measured waves alternate untraced and
// traced, and `exchanges` / `wire_sample` collect material for the offline
// replays.
RunReport run_grid(const RunOptions& options, ExchangeLog& exchanges,
                   MessageSample& wire_sample);

}  // namespace gridbench
