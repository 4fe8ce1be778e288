// gridbench — the grid's end-to-end benchmark: a closed loop of waves
// through the real supervisor stack over loopback TCP (see load.h), one
// workload per run.
//
//   gridbench --workload small-tasks --seed 1 --seconds 10 --trace 0
//             --work-dir DIR [--waves N]
//             [--revision REV] [--source-digest SHA]
//
// --trace 0 measures the end-to-end metrics; --trace 1 alternates traced
// and untraced waves and reports the per-layer metrics instead, plus a
// per-layer table and the spans in DIR/traces/<workload>.spans.tsv. Every
// run checks its verdicts; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when every
// check passed, 1 when one failed or the run broke, 64 on a usage error.

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha_ni.h"
#include "load.h"
#include "net/event_engine.h"
#include "probes.h"
#include "replay.h"
#include "trace.h"

namespace {

using namespace gridbench;

constexpr int kExitUsage = 64;

// Why each workload exists is in gridbench/README.md.
WorkloadSpec workload_named(const std::string& name) {
  WorkloadSpec spec;
  if (name == "small-tasks") {
    spec.workers = 3;
    spec.tasks_per_worker = 64;
    spec.points = 64;
    spec.scheme.kind = ugc::SchemeKind::kCbs;
    spec.scheme.cbs.sample_count = 8;
  } else if (name == "large-tasks") {
    spec.workers = 1;
    // Odd, so the median latency falls inside one task position's cluster
    // rather than in the gap between two.
    spec.tasks_per_worker = 5;
    spec.points = 1u << 16;
    spec.scheme.kind = ugc::SchemeKind::kCbs;
    spec.scheme.cbs.sample_count = 32;
    spec.scheme.cbs.use_batch_proofs = true;
  } else if (name == "verify-heavy") {
    spec.workers = 3;
    spec.tasks_per_worker = 16;
    spec.points = 1u << 10;
    spec.scheme.kind = ugc::SchemeKind::kNiCbs;
    spec.scheme.nicbs.sample_count = 128;
    spec.first_worker_cheats = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (small-tasks, large-tasks, verify-heavy)");
  }
  return spec;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t waves = 0;
  std::string work_dir;
  std::string revision = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --flag value pairs, got '" + key +
                                  "'");
    }
    values[key.substr(2)] = argv[i + 1];
  }
  const auto take = [&](const std::string& key) -> std::optional<std::string> {
    const auto it = values.find(key);
    if (it == values.end()) {
      return std::nullopt;
    }
    std::string value = it->second;
    values.erase(it);
    return value;
  };
  Args args;
  args.workload = take("workload").value_or("");
  if (const auto v = take("seed")) args.seed = std::stoull(*v);
  if (const auto v = take("seconds")) args.seconds = std::stod(*v);
  if (const auto v = take("trace")) args.trace = std::stoi(*v) != 0;
  if (const auto v = take("waves")) args.waves = std::stoull(*v);
  args.work_dir = take("work-dir").value_or("");
  if (const auto v = take("revision")) args.revision = *v;
  if (const auto v = take("source-digest")) args.source_digest = *v;
  if (!values.empty()) {
    throw std::invalid_argument("unknown flag --" + values.begin()->first);
  }
  if (args.workload.empty() || args.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  if (!(args.seconds > 0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string layer;  // empty for end-to-end metrics
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double per(double total, double count) { return count > 0 ? total / count : 0; }

// The p-th latency percentile per group of consecutive blocks, each group
// holding enough verdicts to leave one beyond the percentile (the last,
// short group joins the one before), and the median over groups. A block
// usually suffices; the few-verdict large-tasks p99 takes a median of
// group maxima, which one slow wave cannot move, where the run's 99th
// percentile rests on its last nine samples.
Metric latency_metric(const std::string& name, const RunReport& report,
                      double p) {
  const auto needed = static_cast<std::uint64_t>(std::ceil(1 / (1 - p) - 1e-9));
  std::vector<LatencyHistogram> groups(1);
  for (const Block& block : report.blocks) {
    if (groups.back().count() >= needed) {
      groups.emplace_back();
    }
    groups.back().merge(block.latency);
  }
  if (groups.size() > 1 && groups.back().count() < needed) {
    groups[groups.size() - 2].merge(groups.back());
    groups.pop_back();
  }
  std::vector<double> values;
  std::uint64_t samples = 0;
  for (const LatencyHistogram& group : groups) {
    values.push_back(group.percentile(p));
    samples += group.count();
  }
  std::string note = "median of " + std::to_string(groups.size()) +
                     " groups, n=" + std::to_string(samples) + " verdicts";
  if (static_cast<double>(samples) * (1 - p) < 10) {
    note += ", fewer than 10 beyond";
  }
  return {"", name, median(values), "ms", note};
}

// Rates and costs are medians over the run's blocks (load.h).
std::vector<Metric> end_to_end_metrics(const RunReport& report) {
  std::vector<double> rate, supervisor_cpu, participant_cpu, bytes;
  for (const Block& block : report.blocks) {
    const WaveTotals& t = block.totals;
    const double verdicts = static_cast<double>(t.verdicts);
    rate.push_back(per(verdicts, t.wall_ns / 1e9));
    supervisor_cpu.push_back(per(t.supervisor_cpu_ns / 1e3, verdicts));
    participant_cpu.push_back(
        per((t.process_cpu_ns - t.supervisor_cpu_ns) / 1e3, verdicts));
    bytes.push_back(per(static_cast<double>(t.bytes), verdicts));
  }
  const std::string blocks =
      "median of " + std::to_string(report.blocks.size()) + " blocks";
  return {
      {"", "verdicts_per_s", median(rate), "1/s",
       blocks + ", " + std::to_string(report.untraced.verdicts) +
           " verdicts in " + std::to_string(report.untraced.waves) +
           " waves"},
      latency_metric("verdict_p50_ms", report, 0.50),
      latency_metric("verdict_p99_ms", report, 0.99),
      {"", "supervisor_cpu_us_per_verdict", median(supervisor_cpu), "us",
       "protocol thread"},
      {"", "participant_cpu_us_per_verdict", median(participant_cpu), "us",
       "process minus protocol thread"},
      {"", "wire_bytes_per_verdict", median(bytes), "B",
       "both directions, handshakes excluded"},
      {"", "peak_rss_mb", static_cast<double>(report.peak_rss_kb) / 1024.0,
       "MB", ""},
      {"", "setup_s", median(report.setup_s), "s",
       "median of " + std::to_string(report.setup_s.size()) + " set-ups"},
  };
}

struct Attribution {
  double busy_us = 0;  // protocol-thread CPU per verdict
  std::vector<std::pair<std::string, double>> layers;  // self us per verdict
  double attributed_us = 0;
};

Attribution attribute(const WaveTotals& t, const TraceTotals& spans) {
  const double verdicts = static_cast<double>(t.verdicts);
  const auto self_us = [&](SpanName name) {
    return per(spans.self_ns[static_cast<std::size_t>(name)] / 1e3, verdicts);
  };
  Attribution a;
  a.busy_us = per(t.supervisor_cpu_ns / 1e3, verdicts);
  a.layers = {
      {"net (transport self)", per(t.transport_self_ns / 1e3, verdicts)},
      {"net (send)", self_us(SpanName::kSupervisorSend)},
      {"grid", self_us(SpanName::kSupervisorGrid)},
      {"scheme", self_us(SpanName::kSupervisorScheme)},
      {"store", self_us(SpanName::kStoreRecord)},
  };
  for (const auto& [layer, us] : a.layers) {
    a.attributed_us += us;
  }
  return a;
}

std::vector<Metric> per_layer_metrics(const RunReport& report,
                                      const TraceTotals& spans,
                                      const ReplayResults& replay,
                                      const FunctionTiming& f_timing,
                                      const Attribution& attribution) {
  const WaveTotals& t = report.traced;
  const WaveTotals& u = report.untraced;
  const double verdicts = static_cast<double>(t.verdicts);
  const auto self_us = [&](SpanName name) {
    return per(spans.self_ns[static_cast<std::size_t>(name)] / 1e3, verdicts);
  };
  const auto record = static_cast<std::size_t>(SpanName::kStoreRecord);
  const double traced_rate = per(verdicts, t.wall_ns / 1e9);
  const double untraced_rate =
      per(static_cast<double>(u.verdicts), u.wall_ns / 1e9);
  return {
      {"net", "net.read_calls_per_verdict",
       per(static_cast<double>(t.read_calls), verdicts), "count", ""},
      {"net", "net.write_calls_per_verdict",
       per(static_cast<double>(t.write_calls), verdicts), "count", ""},
      {"net", "net.frames_per_write",
       per(static_cast<double>(t.frames_sent),
           static_cast<double>(t.write_calls)),
       "count", ""},
      {"net", "net.transport_self_us_per_verdict",
       per(t.transport_self_ns / 1e3, verdicts), "us",
       "run() CPU minus node callbacks"},
      {"net", "net.send_us_per_verdict", self_us(SpanName::kSupervisorSend),
       "us", "supervisor send(): encode, frame, queue"},
      {"net", "net.protocol_thread_busy_ratio",
       per(static_cast<double>(t.supervisor_cpu_ns),
           static_cast<double>(t.wall_ns)),
       "ratio", ""},
      {"wire", "wire.frames_per_verdict",
       per(static_cast<double>(t.messages), verdicts), "count", ""},
      {"wire", "wire.encode_ns_per_frame", replay.encode_ns_per_frame, "ns",
       std::to_string(replay.frames) + " sampled frames"},
      {"wire", "wire.decode_ns_per_frame", replay.decode_ns_per_frame, "ns",
       std::to_string(replay.frames) + " sampled frames"},
      {"wire", "wire.view_decode_ns_per_frame",
       replay.view_decode_ns_per_frame, "ns",
       std::to_string(replay.proof_frames) + " proof frames"},
      {"grid", "grid.supervisor_self_us_per_verdict",
       self_us(SpanName::kSupervisorGrid), "us", ""},
      {"grid", "grid.participant_self_us_per_verdict",
       self_us(SpanName::kParticipantGrid), "us", ""},
      {"scheme", "scheme.supervisor_us_per_verdict",
       self_us(SpanName::kSupervisorScheme), "us", ""},
      {"scheme", "scheme.participant_commit_us_per_verdict",
       self_us(SpanName::kParticipantCommit), "us", ""},
      {"scheme", "scheme.participant_prove_us_per_verdict",
       self_us(SpanName::kParticipantProve), "us", ""},
      {"core", "core.verify_us_per_verdict", replay.verify_us, "us",
       std::to_string(replay.exchanges) + " accepted exchanges"},
      {"workloads", "workloads.participant_f_evals_per_verdict",
       per(static_cast<double>(t.participant_f_evals), verdicts), "count",
       ""},
      {"workloads", "workloads.supervisor_f_evals_per_verdict",
       per(static_cast<double>(t.supervisor_f_evals), verdicts), "count", ""},
      {"workloads", "workloads.f_ns",
       per(static_cast<double>(f_timing.timed_ns),
           static_cast<double>(f_timing.timed_calls)),
       "ns", std::to_string(f_timing.timed_calls) + " timed calls"},
      {"merkle", "merkle.build_us_per_verdict", replay.merkle_build_us, "us",
       "one tree per verdict"},
      {"crypto", "crypto.hash_pair_ns", replay.hash_pair_ns, "ns", "sha256"},
      {"store", "store.record_us",
       per(spans.self_ns[record] / 1e3,
           static_cast<double>(spans.calls[record])),
       "us", std::to_string(spans.calls[record]) + " records"},
      {"store", "store.syncs", static_cast<double>(report.store_syncs),
       "count", "per run"},
      {"auth", "auth.handshake_ms", median(report.handshake_ms), "ms",
       "median of " + std::to_string(report.handshake_ms.size())},
      {"trace", "trace.attributed_ratio",
       per(attribution.attributed_us, attribution.busy_us), "ratio", ""},
      {"trace", "trace.unattributed_us_per_verdict",
       attribution.busy_us - attribution.attributed_us, "us", ""},
      {"trace", "trace.overhead_ratio", per(traced_rate, untraced_rate),
       "ratio", "traced / untraced verdicts_per_s"},
  };
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-10s %-42s %14.6g %-6s %s\n",
                m.layer.empty() ? "e2e" : m.layer.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), m.note.c_str());
  }
}

std::string meta_json(const Args& args, const RunReport& report) {
  utsname host{};
  uname(&host);
  return "{\"workload\":" + quoted(args.workload) +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"seconds\":" + number(args.seconds) +
         ",\"trace\":" + (args.trace ? "1" : "0") +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"kernel\":" + quoted(host.release) +
         ",\"sha_ni\":" + (ugc::sha_ni_available() ? "true" : "false") +
         ",\"uring\":" + (ugc::net::uring_supported() ? "true" : "false") +
         ",\"engine\":" + quoted(report.engine) +
         ",\"host_steal_ratio\":" + number(report.host_steal_ratio) +
         ",\"git_revision\":" + quoted(args.revision) +
         ",\"source_sha256\":" + quoted(args.source_digest) + "}";
}

int run(const Args& args) {
  RunOptions options;
  options.spec = workload_named(args.workload);
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.waves = args.waves;
  options.trace = args.trace;
  options.state_dir =
      args.work_dir + "/state-" + std::to_string(::getpid());

  ExchangeLog exchanges(64);
  MessageSample wire_sample(512, args.seed);
  const RunReport report = run_grid(options, exchanges, wire_sample);
  const Checks& checks = report.checks;
  bool correct = checks.correct();

  std::printf("# gridbench workload=%s seed=%llu seconds=%s trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              number(args.seconds).c_str(), args.trace ? 1 : 0);
  std::printf("# meta %s\n", meta_json(args, report).c_str());

  std::vector<Metric> reported;
  if (!args.trace) {
    reported = end_to_end_metrics(report);
    std::printf("# end-to-end, %zu untraced waves\n", report.untraced.waves);
    print_metrics(reported);
    std::string rates;
    for (const Block& block : report.blocks) {
      rates += ' ';
      rates += number(std::round(per(static_cast<double>(block.totals.verdicts),
                                     block.totals.wall_ns / 1e9)));
    }
    std::printf("# verdicts_per_s by block:%s\n", rates.c_str());
    std::string setups;
    for (const double seconds : report.setup_s) {
      setups += ' ';
      setups += number(std::round(seconds * 1e6) / 1e3);
    }
    std::printf("# set-ups, ms:%s\n", setups.c_str());
    correct = correct && !report.blocks.empty();
  } else {
    const TraceTotals spans = trace_totals();
    const ReplayResults replay =
        run_replays(wire_sample.messages(), exchanges.exchanges(),
                    options.spec, workload_seed(options.seed));
    const FunctionTiming f_timing = function_timing();
    const Attribution attribution = attribute(report.traced, spans);
    reported = per_layer_metrics(report, spans, replay, f_timing,
                                 attribution);
    std::printf("# per-layer, %zu traced waves (%llu verdicts) alternating "
                "with %zu untraced\n",
                report.traced.waves,
                static_cast<unsigned long long>(report.traced.verdicts),
                report.untraced.waves);
    print_metrics(reported);
    std::printf("# supervisor protocol thread: %.3f us busy per verdict\n",
                attribution.busy_us);
    for (const auto& [layer, us] : attribution.layers) {
      std::printf("#   %-22s %10.3f us  %5.1f%%\n", layer.c_str(), us,
                  100 * per(us, attribution.busy_us));
    }
    std::printf("#   %-22s %10.3f us  %5.1f%%\n", "unattributed",
                attribution.busy_us - attribution.attributed_us,
                100 * (1 - per(attribution.attributed_us,
                               attribution.busy_us)));
    const auto overhead =
        std::find_if(reported.begin(), reported.end(), [](const Metric& m) {
          return m.name == "trace.overhead_ratio";
        });
    std::printf("# tracing overhead: traced/untraced verdicts_per_s = %.4f\n",
                overhead->value);
    const std::string trace_dir = args.work_dir + "/traces";
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + "/" + args.workload + ".spans.tsv";
    write_spans(path);
    std::printf("# spans: %llu kept, %llu beyond the cap, in %s\n",
                static_cast<unsigned long long>(spans.spans_kept),
                static_cast<unsigned long long>(spans.spans_dropped),
                path.c_str());
    correct = correct && report.traced.verdicts > 0;
  }

  const double failed_ratio =
      per(static_cast<double>(checks.failed()),
          static_cast<double>(checks.tasks_assigned));
  std::printf("# checks: tasks=%llu honest_accused=%llu aborted=%llu "
              "missing=%llu cheater_accepted=%llu of %llu cheater tasks "
              "failed_ratio=%s\n",
              static_cast<unsigned long long>(checks.tasks_assigned),
              static_cast<unsigned long long>(checks.honest_accused),
              static_cast<unsigned long long>(checks.aborted),
              static_cast<unsigned long long>(checks.missing),
              static_cast<unsigned long long>(checks.cheater_accepted),
              static_cast<unsigned long long>(checks.cheater_tasks),
              number(failed_ratio).c_str());
  for (const std::string& error : checks.errors) {
    std::printf("# error: %s\n", error.c_str());
  }

  std::string metrics;
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) {
      correct = false;
      continue;
    }
    metrics += (metrics.empty() ? "" : ", ") + quoted(m.name) +
               ": {\"value\": " + number(m.value) +
               ", \"unit\": " + quoted(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(checks.tasks_assigned),
              static_cast<unsigned long long>(checks.failed()),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A peer vanishing mid-write must surface as EPIPE, not kill the run.
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  try {
    args = parse_args(argc, argv);
    workload_named(args.workload);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gridbench: %s\n", error.what());
    return kExitUsage;
  }
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gridbench: %s\n", error.what());
    return 1;
  }
}
