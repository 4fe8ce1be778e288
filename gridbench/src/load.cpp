#include "load.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "auth/identity.h"
#include "common/rng.h"
#include "core/cheating.h"
#include "grid/participant_node.h"
#include "grid/supervisor_node.h"
#include "net/tcp_transport.h"
#include "probes.h"
#include "store/durable_ledger.h"

namespace gridbench {

using namespace ugc;

namespace {

constexpr std::int64_t kSecond = 1'000'000'000;
// A wave that has not settled by then has stalled for good: the
// supervisor's own retry path gives up after a few quiescence timeouts.
constexpr std::int64_t kWaveDeadline = 60 * kSecond;
constexpr std::int64_t kSetupDeadline = 30 * kSecond;
// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 11;

constexpr std::size_t kLatencyBuckets = 1700;
constexpr double kLatencyBaseMs = 1e-3;
constexpr double kLatencyGrowth = 1.01;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct WaveKind {
  bool measured = false;
  bool traced = false;
  std::uint32_t block = 0;  // untraced measured waves: index into blocks
};

// The kind of every wave, written by the supervisor thread before the
// wave's assignments are sent and read by the clients when they arrive.
class WaveSchedule {
 public:
  void set(std::uint32_t wave, WaveKind kind) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (kinds_.size() <= wave) {
      kinds_.resize(wave + 1);
    }
    kinds_[wave] = kind;
  }
  WaveKind get(std::uint32_t wave) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return wave < kinds_.size() ? kinds_[wave] : WaveKind{};
  }

 private:
  mutable std::mutex mutex_;
  std::vector<WaveKind> kinds_;  // guarded by mutex_
};

// What one client observed; read by the supervisor thread after joining.
struct ClientResults {
  std::uint64_t verdicts = 0;
  std::vector<LatencyHistogram> latency;  // by block
  std::uint64_t traced_f_evals = 0;
  std::uint64_t untraced_f_evals = 0;
  std::string error;
};

// The client's local node: a fresh ParticipantNode per wave, started when
// an assignment id repeats. Times each task from its assignment to its
// verdict as the participant sees them.
class WaveRouter final : public GridNode {
 public:
  WaveRouter(ClientResults& results, const WaveSchedule& schedule,
             const TracedRegistries* traced,
             std::shared_ptr<const HonestyPolicy> policy)
      : results_(results),
        schedule_(schedule),
        traced_(traced),
        policy_(std::move(policy)) {}

  void on_message(GridNodeId from, const Message& message,
                  Transport& transport) override {
    const std::int64_t now = now_ns();
    if (const auto* assignment = std::get_if<TaskAssignment>(&message)) {
      if (node_ == nullptr || assigned_.contains(assignment->task.value)) {
        start_wave(transport);
      }
      assigned_.emplace(assignment->task.value, now);
    } else if (const auto* verdict = std::get_if<Verdict>(&message)) {
      ++results_.verdicts;
      const auto it = assigned_.find(verdict->task.value);
      if (kind_.measured && !kind_.traced && it != assigned_.end()) {
        if (results_.latency.size() <= kind_.block) {
          results_.latency.resize(kind_.block + 1);
        }
        results_.latency[kind_.block].add(
            static_cast<double>(now - it->second) / 1e6);
      }
    }
    if (node_ == nullptr) {
      return;
    }
    if (kind_.traced) {
      const Span span(SpanName::kParticipantGrid, task_of(message).value);
      node_->on_message(from, message, *tracing_);
    } else {
      node_->on_message(from, message, transport);
    }
  }

  bool on_quiescent(Transport& transport) override {
    return node_ != nullptr && node_->on_quiescent(transport);
  }

  // Folds the last wave in; call once run() has returned.
  void finish() {
    finish_wave();
    trace_wave(false, wave_);
  }

 private:
  void start_wave(Transport& transport) {
    finish_wave();
    wave_ = node_started_ ? wave_ + 1 : 0;
    node_started_ = true;
    kind_ = schedule_.get(wave_);
    trace_wave(kind_.traced, wave_);
    ParticipantNode::Options options;
    options.policy = policy_;
    if (kind_.traced) {
      options.registry = &traced_->workloads;
      options.schemes = &traced_->schemes;
    }
    node_ = std::make_unique<ParticipantNode>(options);
    TracingTransport::bind(*node_, id());
    tracing_.emplace(transport, SpanName::kParticipantSend, nullptr);
    assigned_.clear();
  }

  void finish_wave() {
    if (node_ == nullptr) {
      return;
    }
    if (kind_.measured) {
      (kind_.traced ? results_.traced_f_evals : results_.untraced_f_evals) +=
          node_->honest_evaluations();
    }
    node_.reset();
  }

  ClientResults& results_;
  const WaveSchedule& schedule_;
  const TracedRegistries* traced_;
  std::shared_ptr<const HonestyPolicy> policy_;
  std::unique_ptr<ParticipantNode> node_;
  std::optional<TracingTransport> tracing_;
  std::map<std::uint64_t, std::int64_t> assigned_;  // task id -> received
  std::uint32_t wave_ = 0;
  bool node_started_ = false;
  WaveKind kind_;
};

struct Client {
  Client(std::size_t index_in, auth::WorkerIdentity identity_in)
      : index(index_in), identity(std::move(identity_in)) {}

  std::size_t index;
  auth::WorkerIdentity identity;
  std::atomic<std::int64_t> connect_start_ns{0};
  std::atomic<bool> failed{false};
  ClientResults results;  // owned by the thread until it is joined
  std::thread thread;
};

void client_main(Client& client, std::uint16_t port, const RunOptions& options,
                 const WaveSchedule& schedule,
                 const TracedRegistries* traced) {
  try {
    net::TcpTransport transport;
    transport.use_identity(client.identity,
                           "gridbench-" + std::to_string(client.index));
    bool disconnected = false;
    transport.on_peer_disconnected = [&](GridNodeId) { disconnected = true; };
    std::shared_ptr<const HonestyPolicy> policy;
    if (options.spec.first_worker_cheats && client.index == 0) {
      policy = make_semi_honest_cheater(
          SemiHonestCheater::Params{0.5, 0.0, mix(options.seed, 2)});
    }
    WaveRouter router(client.results, schedule, traced, std::move(policy));
    client.connect_start_ns.store(now_ns());
    transport.connect("127.0.0.1", port);
    transport.add_local(router);
    transport.run([&] { return disconnected; });
    router.finish();
  } catch (const std::exception& error) {
    client.results.error = error.what();
    client.failed.store(true);
  }
}

// Joins every client thread on destruction. Declared before the
// supervisor's transport, so on any exit the transport closes first and
// the clients, seeing their connection end, return.
struct ClientPool {
  std::vector<std::unique_ptr<Client>> clients;

  ClientPool() = default;
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;
  ~ClientPool() { join(); }

  void join() {
    for (const auto& client : clients) {
      if (client->thread.joinable()) {
        client->thread.join();
      }
    }
  }
};

// One set-up of the whole stack: store, identities, listener, clients,
// handshakes. Construction returns once every worker is authenticated.
class Stack {
 public:
  Stack(const RunOptions& options, const std::string& dir,
        const WaveSchedule& schedule, const TracedRegistries* traced,
        std::atomic<std::uint64_t>* syncs, std::vector<double>& handshake_ms)
      : ledger(store::ReputationParams{}, open_store(dir, syncs)) {
    const std::size_t workers = options.spec.workers;
    Rng rng(mix(options.seed, 3));
    for (std::size_t w = 0; w < workers; ++w) {
      const std::string path = dir + "/worker-" + std::to_string(w) + ".key";
      pool.clients.push_back(std::make_unique<Client>(
          w, auth::load_or_create_identity(path, rng)));
    }
    net::AuthOptions auth_options;
    auth_options.is_banned = [this](const auth::WorkerId& id) {
      return ledger.banned(id);
    };
    transport.require_auth(std::move(auth_options));
    transport.listen("127.0.0.1", 0);
    peers.assign(workers, GridNodeId{});
    std::size_t authenticated = 0;
    transport.on_peer_authenticated = [&](GridNodeId peer,
                                          const auth::AuthInfo& info) {
      for (const auto& client : pool.clients) {
        if (client->identity.id() == info.worker_id) {
          peers[client->index] = peer;
          worker_of[peer.value] = client->index;
          handshake_ms.push_back(
              static_cast<double>(now_ns() - client->connect_start_ns.load()) /
              1e6);
          ++authenticated;
        }
      }
    };
    const std::uint16_t port = transport.port();
    for (const auto& client : pool.clients) {
      client->thread = std::thread(client_main, std::ref(*client), port,
                                   std::cref(options), std::cref(schedule),
                                   traced);
    }
    const std::int64_t deadline = now_ns() + kSetupDeadline;
    const auto any_failed = [&] {
      return std::any_of(pool.clients.begin(), pool.clients.end(),
                         [](const auto& c) { return c->failed.load(); });
    };
    transport.run([&] {
      return authenticated == workers || any_failed() || now_ns() > deadline;
    });
    transport.on_peer_authenticated = nullptr;
    if (authenticated != workers) {
      throw std::runtime_error("set-up: only " + std::to_string(authenticated) +
                               " of " + std::to_string(workers) +
                               " workers authenticated");
    }
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { finish(); }

  // Drains the last verdicts, hangs up, and joins the clients.
  void finish() {
    if (!finished_) {
      finished_ = true;
      transport.close_all();
      pool.join();
    }
  }

  store::DurableReputationLedger ledger;
  ClientPool pool;
  net::TcpTransport transport;  // gridd's defaults: engine auto, one loop
  std::vector<GridNodeId> peers;                 // by worker index
  std::map<std::uint32_t, std::size_t> worker_of;  // peer id -> worker

 private:
  static std::unique_ptr<store::ReputationStore> open_store(
      const std::string& dir, std::atomic<std::uint64_t>* syncs) {
    std::filesystem::create_directories(dir);
    auto store = store::make_file_reputation_store(dir + "/reputation");
    return syncs != nullptr ? make_counting_store(std::move(store), *syncs)
                            : std::move(store);
  }

  bool finished_ = false;
};

struct Snapshot {
  std::int64_t wall_ns = 0;
  std::int64_t thread_cpu_ns = 0;
  std::int64_t process_cpu_ns = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t write_calls = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

Snapshot snapshot(const net::TcpTransport& transport) {
  Snapshot s;
  const net::TcpIoStats io = transport.io_stats();
  s.read_calls = io.read_calls;
  s.write_calls = io.write_calls;
  s.frames_sent = io.frames_sent;
  s.messages = transport.stats().total_messages;
  s.bytes = transport.stats().total_bytes;
  s.wall_ns = now_ns();
  s.thread_cpu_ns = thread_cpu_ns();
  s.process_cpu_ns = process_cpu_ns();
  return s;
}

// VmHWM: the peak resident set of this process image. getrusage's
// ru_maxrss would also count the launcher's image from before exec.
std::int64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoll(line.substr(6));
    }
  }
  return 0;
}

// (steal, total) jiffies over all CPUs, from the first line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> host_cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    steal = field == 7 ? value : steal;
  }
  return {steal, total};
}

void add(WaveTotals& totals, const WaveTotals& wave) {
  totals.waves += wave.waves;
  totals.verdicts += wave.verdicts;
  totals.wall_ns += wave.wall_ns;
  totals.supervisor_cpu_ns += wave.supervisor_cpu_ns;
  totals.process_cpu_ns += wave.process_cpu_ns;
  totals.read_calls += wave.read_calls;
  totals.write_calls += wave.write_calls;
  totals.frames_sent += wave.frames_sent;
  totals.messages += wave.messages;
  totals.bytes += wave.bytes;
  totals.supervisor_f_evals += wave.supervisor_f_evals;
  totals.participant_f_evals += wave.participant_f_evals;
  totals.transport_self_ns += wave.transport_self_ns;
}

void accumulate(WaveTotals& totals, const Snapshot& a, const Snapshot& b) {
  ++totals.waves;
  totals.wall_ns += b.wall_ns - a.wall_ns;
  totals.supervisor_cpu_ns += b.thread_cpu_ns - a.thread_cpu_ns;
  totals.process_cpu_ns += b.process_cpu_ns - a.process_cpu_ns;
  totals.read_calls += b.read_calls - a.read_calls;
  totals.write_calls += b.write_calls - a.write_calls;
  totals.frames_sent += b.frames_sent - a.frames_sent;
  totals.messages += b.messages - a.messages;
  totals.bytes += b.bytes - a.bytes;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kLatencyBuckets, 0) {}

void LatencyHistogram::add(double ms) {
  const double position =
      ms > kLatencyBaseMs
          ? std::log(ms / kLatencyBaseMs) / std::log(kLatencyGrowth)
          : 0;
  const auto bucket = static_cast<std::size_t>(
      std::min(position, static_cast<double>(kLatencyBuckets - 1)));
  ++buckets_[bucket];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count_))));
  std::uint64_t below = 0;
  std::size_t bucket = 0;
  for (; bucket < kLatencyBuckets - 1; ++bucket) {
    if (below + buckets_[bucket] >= rank) {
      break;
    }
    below += buckets_[bucket];
  }
  // The rank's place among its bucket's samples, spread evenly over the
  // bucket's width.
  const double within =
      buckets_[bucket] == 0
          ? 0.5
          : (static_cast<double>(rank - below) - 0.5) / buckets_[bucket];
  return kLatencyBaseMs *
         std::pow(kLatencyGrowth, static_cast<double>(bucket) + within);
}

std::uint64_t workload_seed(std::uint64_t seed) { return mix(seed, 1); }

RunReport run_grid(const RunOptions& options, ExchangeLog& exchanges,
                   MessageSample& wire_sample) {
  const WorkloadSpec& spec = options.spec;
  const std::size_t workers = spec.workers;
  const std::size_t wave_tasks = workers * spec.tasks_per_worker;
  const std::uint64_t wave_points = wave_tasks * spec.points;
  RunReport report;
  Checks& checks = report.checks;

  std::filesystem::create_directories(options.state_dir);
  struct RemoveDir {
    std::string dir;
    ~RemoveDir() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } remove_state{options.state_dir};

  const std::unique_ptr<TracedRegistries> traced =
      options.trace ? make_traced_registries(exchanges) : nullptr;
  std::atomic<std::uint64_t> syncs{0};
  WaveSchedule schedule;

  // Several full set-ups; the last one carries the load.
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    const std::int64_t start = now_ns();
    stack = std::make_unique<Stack>(
        options, options.state_dir + "/setup-" + std::to_string(i), schedule,
        traced.get(), options.trace ? &syncs : nullptr, report.handshake_ms);
    report.setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  net::TcpTransport& transport = stack->transport;

  // Slot i goes to worker i mod W, so each connection holds K tasks.
  std::vector<GridNodeId> slots;
  for (std::size_t i = 0; i < wave_tasks; ++i) {
    slots.push_back(stack->peers[i % workers]);
  }

  const std::int64_t warmup_ns =
      options.waves > 0
          ? 0
          : static_cast<std::int64_t>(std::min(1.0, 0.2 * options.seconds) *
                                      1e9);
  const std::int64_t window_ns =
      static_cast<std::int64_t>(options.seconds * 1e9);
  const std::int64_t run_start = now_ns();
  std::int64_t measure_start = 0;
  std::size_t measured_waves = 0;
  std::uint64_t settled = 0;
  std::pair<std::uint64_t, std::uint64_t> jiffies_start{0, 0};
  // With a fixed wave count (tests) every measured wave is one block, so
  // exact counts do not depend on timing.
  const std::int64_t block_ns =
      options.waves > 0 ? std::numeric_limits<std::int64_t>::max()
                        : std::min(window_ns / 10, kSecond);
  bool block_open = false;
  Snapshot before = snapshot(transport);

  for (std::uint32_t wave = 0;; ++wave) {
    const std::int64_t now = now_ns();
    const bool measuring = measure_start != 0;
    if (!measuring && (options.waves > 0 ? wave >= 1
                                         : now - run_start >= warmup_ns)) {
      measure_start = now;
      jiffies_start = host_cpu_jiffies();
    } else if (measuring) {
      const bool enough =
          options.waves > 0
              ? measured_waves >= options.waves
              : now - measure_start >= window_ns &&
                    (!options.trace ||
                     (measured_waves >= 4 && measured_waves % 2 == 0));
      if (enough) {
        break;
      }
    }
    // Measured waves alternate untraced / traced in a traced run, so both
    // halves see the same drift.
    WaveKind kind{measure_start != 0,
                  measure_start != 0 && options.trace &&
                      measured_waves % 2 == 1};
    if (kind.measured && !kind.traced) {
      if (!block_open) {
        report.blocks.emplace_back();
        block_open = true;
      }
      kind.block = static_cast<std::uint32_t>(report.blocks.size() - 1);
    }
    schedule.set(wave, kind);

    std::uint64_t supervisor_f_evals = 0;
    std::int64_t transport_self_ns = 0;
    std::uint64_t wave_verdicts = 0;
    trace_wave(kind.traced, wave);
    {
      const Span wave_span(SpanName::kWave, 0);
      SupervisorNode::Plan plan;
      plan.domain = Domain(wave * wave_points, (wave + 1) * wave_points);
      plan.workload = "test";
      plan.workload_seed = workload_seed(options.seed);
      plan.scheme = spec.scheme;
      plan.seed = mix(options.seed, 1000 + wave);
      if (kind.traced) {
        plan.registry = &traced->workloads;
        plan.schemes = &traced->schemes;
      }
      std::optional<SupervisorNode> supervisor;
      std::optional<TracedNode> decorator;
      {
        const Span span(SpanName::kSupervisorGrid, 0);
        supervisor.emplace(plan, slots);
        if (kind.traced) {
          decorator.emplace(*supervisor, transport, &wire_sample);
          TracingTransport::bind(*supervisor, transport.add_local(*decorator));
          supervisor->start(decorator->transport());
        } else {
          transport.add_local(*supervisor);
          supervisor->start(transport);
        }
      }
      const std::int64_t deadline = now_ns() + kWaveDeadline;
      const std::int64_t run_cpu_start = kind.traced ? thread_cpu_ns() : 0;
      {
        const Span span(SpanName::kNetRun, 0);
        transport.run(
            [&] { return supervisor->done() || now_ns() > deadline; });
        if (kind.traced) {
          // Time in run() outside every node callback is the transport's
          // own: reads, decode, dispatch, framing, writes, the engine.
          transport_self_ns =
              thread_cpu_ns() - run_cpu_start - span.child_ns();
        }
      }
      transport.clear_local();
      if (!supervisor->done()) {
        checks.errors.push_back("wave " + std::to_string(wave) +
                                " did not settle");
      }

      // The verdict checks, and gridd's reputation bookkeeping.
      const std::vector<SupervisorNode::TaskOutcome> outcomes =
          supervisor->outcomes();
      checks.tasks_assigned += wave_tasks;
      checks.missing += wave_tasks - std::min(wave_tasks, outcomes.size());
      for (const SupervisorNode::TaskOutcome& outcome : outcomes) {
        const std::size_t worker = stack->worker_of.at(outcome.peer.value);
        const bool cheater = spec.first_worker_cheats && worker == 0;
        checks.cheater_tasks += cheater ? 1 : 0;
        if (outcome.verdict.status == VerdictStatus::kAborted) {
          ++checks.aborted;
          continue;
        }
        ++wave_verdicts;
        const bool accepted = outcome.verdict.accepted();
        checks.honest_accused += !accepted && !cheater ? 1 : 0;
        checks.cheater_accepted += accepted && cheater ? 1 : 0;
        const Span span(SpanName::kStoreRecord, outcome.task.value);
        stack->ledger.record(
            stack->pool.clients[worker]->identity.id(), accepted);
      }
      supervisor_f_evals = supervisor->verification_evaluations();
    }
    trace_wave(false, wave);
    settled += wave_verdicts;

    const Snapshot after = snapshot(transport);
    if (kind.measured) {
      WaveTotals totals;
      accumulate(totals, before, after);
      totals.verdicts = wave_verdicts;
      totals.supervisor_f_evals = supervisor_f_evals;
      totals.transport_self_ns = transport_self_ns;
      add(kind.traced ? report.traced : report.untraced, totals);
      if (!kind.traced) {
        add(report.blocks[kind.block].totals, totals);
        block_open = report.blocks[kind.block].totals.wall_ns < block_ns;
      }
      ++measured_waves;
    }
    before = after;
    if (!checks.errors.empty()) {
      break;
    }
  }

  // A short last block joins the one before it.
  if (report.blocks.size() > 1 &&
      report.blocks.back().totals.wall_ns < block_ns / 2) {
    add(report.blocks[report.blocks.size() - 2].totals,
        report.blocks.back().totals);
    report.blocks.pop_back();
  }

  const auto jiffies_end = host_cpu_jiffies();
  if (jiffies_end.second > jiffies_start.second) {
    report.host_steal_ratio =
        static_cast<double>(jiffies_end.first - jiffies_start.first) /
        static_cast<double>(jiffies_end.second - jiffies_start.second);
  }
  report.engine = transport.io_stats().engine;
  stack->finish();
  std::uint64_t delivered = 0;
  for (const auto& client : stack->pool.clients) {
    const ClientResults& results = client->results;
    if (!results.error.empty()) {
      checks.errors.push_back("client " + std::to_string(client->index) +
                              ": " + results.error);
    }
    delivered += results.verdicts;
    for (std::size_t b = 0; b < results.latency.size(); ++b) {
      report.blocks[std::min(b, report.blocks.size() - 1)].latency.merge(
          results.latency[b]);
    }
    report.untraced.participant_f_evals += results.untraced_f_evals;
    report.traced.participant_f_evals += results.traced_f_evals;
  }
  // Settled on the supervisor but never seen by the participant.
  checks.missing += settled - std::min(settled, delivered);
  report.store_syncs = syncs.load();
  stack.reset();

  report.peak_rss_kb = peak_rss_kb();
  return report;
}

}  // namespace gridbench
