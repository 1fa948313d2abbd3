// perfbench_e2e — one end-to-end benchmark of the NEUROPULS stack.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it sets the workload up ten times around one untraced
// timed pass and prints the end-to-end metrics (see Summary). With
// --trace 1 it runs an untraced pass and then a traced pass on a fresh
// set-up, each for half of --seconds, and prints every per-layer metric
// plus trace.overhead_pct. The last stdout line is the JSON result; the
// line before it records the host and the build. See README.md.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "fleet/fleet.hpp"
#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

std::size_t worker_threads() {
  cpu_set_t set;
  std::size_t cpus = std::thread::hardware_concurrency();
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::clamp<std::size_t>(cpus, 1, 4);
}

namespace {

constexpr int kSetupSamples = 10;
/// Share of segments (and set-up samples) the reported figures come from.
constexpr double kBest = 0.02;

// Every per-layer metric of the traced run, in BENCHMARK.json order. A
// workload reports the ones whose layer it calls; the rest read 0 (the
// layer is bypassed on that workload).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"accel.encrypt_input_us", "us"},
    {"accel.execute_network_us", "us"},
    {"accel.decrypt_output_us", "us"},
    {"accel.load_network_us", "us"},
    {"accel.encrypt_network_us", "us"},
    {"accel.plain_infer_us", "us"},
    {"core.channel.seal_us", "us"},
    {"core.channel.open_us", "us"},
    {"core.channel.record_bytes", "bytes"},
    {"core.auth.request_to_response_us", "us"},
    {"core.auth.response_to_confirm_us", "us"},
    {"core.auth.verifier_start_us", "us"},
    {"core.auth.device_request_us", "us"},
    {"core.auth.verifier_process_us", "us"},
    {"core.auth.device_confirm_us", "us"},
    {"core.eke.initiate_us", "us"},
    {"core.eke.respond_us", "us"},
    {"core.eke.confirm_us", "us"},
    {"core.eke.finalize_us", "us"},
    {"core.engine.admit_wait_us", "us"},
    {"core.engine.steps_per_session", "count"},
    {"core.engine.parks_per_session", "count"},
    {"core.engine.wakeups_per_session", "count"},
    {"core.engine.steals_per_session", "count"},
    {"core.engine.worker_parks", "count"},
    {"core.engine.peak_queue_depth", "count"},
    {"core.admission.admitted", "count"},
    {"core.admission.shed_ratio", "ratio"},
    {"core.admission.evicted", "count"},
    {"core.admission.malformed", "count"},
    {"core.admission.honest_shed", "count"},
    {"core.admission.false_accepts", "count"},
    {"core.session.attempts_per_session", "count"},
    {"core.session.useful_ratio", "ratio"},
    {"net.frames_per_session", "count"},
    {"net.bytes_per_session", "bytes"},
    {"puf.evaluate_us", "us"},
    {"puf.evaluations_per_op", "count"},
    {"core.key_manager.derive_us", "us"},
    {"core.key_manager.derive_self_us", "us"},
    {"core.key_manager.derive_retries", "count"},
    {"puf.crp_db.lookup_us", "us"},
    {"puf.crp_db.record_us", "us"},
    {"puf.crp_db.contended_pct", "%"},
    {"puf.crp_db.sync_us", "us"},
    {"puf.crp_db.wal_bytes_per_op", "bytes"},
    {"puf.crp_db.take_steals", "count"},
    {"fleet.sweep_s", "s"},
    {"fleet.rotated", "count"},
    {"fleet.mean_attempts", "count"},
    {"fleet.keyless", "count"},
    {"fleet.poll_ticks_p50", "count"},
    {"trace.overhead_pct", "%"},
};

using Runner = PassResult (*)(const Options&, Mode);

Runner runner_for(const std::string& workload) {
  if (workload == "auth_storm") return run_auth_storm;
  if (workload == "secure_inference") return run_secure_inference;
  if (workload == "device_onboarding") return run_device_onboarding;
  if (workload == "fleet_rotation") return run_fleet_rotation;
  return nullptr;
}

/// Nearest-rank percentile of an unsorted sample (sorted in place).
double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// The end-to-end figures of a pass. Each segment (a fraction of a second
/// of work) gets its own throughput and latency percentiles, and the pass
/// reports the best fiftieth (kBest) of each over its segments. The cores
/// of a shared host alternate between a fast state and one about 1.6x
/// slower, each lasting milliseconds to seconds, for reasons outside the
/// benchmark; the best segments track the code as long as a fiftieth of
/// the run is fast, where a median would follow the neighbours' load.
struct Summary {
  double ops_per_s = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
};

Summary summarize(const PassResult& pass) {
  std::vector<double> rate, p50, p90, p99;
  std::size_t first = 0;
  for (std::size_t s = 0; s < pass.segment_end.size(); ++s) {
    const std::size_t last = pass.segment_end[s];
    std::vector<double> lat(pass.latency_us.begin() + first,
                            pass.latency_us.begin() + last);
    rate.push_back(ratio(static_cast<double>(last - first), pass.segment_s[s]));
    if (!lat.empty()) {
      p50.push_back(percentile(lat, 0.50));
      p90.push_back(percentile(lat, 0.90));
      p99.push_back(percentile(lat, 0.99));
    }
    first = last;
  }
  return {percentile(rate, 1.0 - kBest), percentile(p50, kBest),
          percentile(p90, kBest), percentile(p99, kBest)};
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

bool parse_args(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

int run(Options options) {
  const Runner runner = runner_for(options.workload);
  if (runner == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  // A traced run makes its two passes in the time of one.
  if (options.trace) options.seconds /= 2.0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  auto tally = [&](const PassResult& pass) {
    attempted += pass.attempted;
    failed += pass.failed;
    violations += pass.violations;
  };

  // Set-up samples are taken before and after the timed pass, so that
  // they span the run; setup_s is their best fiftieth, like the rest.
  std::vector<double> setups;
  auto sample_setups = [&](int count) {
    for (int i = 0; i < count && !options.trace; ++i) {
      setups.push_back(runner(options, Mode::kSetupOnly).setup_s);
    }
  };
  sample_setups(kSetupSamples / 2);
  const PassResult untraced = runner(options, Mode::kUntraced);
  tally(untraced);
  setups.push_back(untraced.setup_s);
  sample_setups(kSetupSamples - 1 - kSetupSamples / 2);
  const Summary summary = summarize(untraced);

  if (!options.trace) {
    metrics["ops_per_s"] = {summary.ops_per_s, "1/s"};
    metrics["latency_p50_us"] = {summary.p50_us, "us"};
    metrics["latency_p90_us"] = {summary.p90_us, "us"};
    metrics["latency_p99_us"] = {summary.p99_us, "us"};
    metrics["setup_s"] = {percentile(setups, kBest), "s"};
    metrics["peak_rss_mib"] = {
        static_cast<double>(neuropuls::fleet::MemoryProbe::read().vm_hwm_bytes) /
            (1024.0 * 1024.0),
        "MiB"};
  } else {
    PassResult traced = runner(options, Mode::kTraced);
    tally(traced);
    for (const auto& [name, unit] : kLayerMetrics) metrics[name] = {0.0, unit};
    for (const LayerMetric& m : traced.layers) {
      if (metrics.count(m.name) == 0) {
        std::fprintf(stderr, "perfbench: unlisted layer metric %s\n",
                     m.name.c_str());
        return 2;
      }
      metrics[m.name].first = m.value;
    }
    metrics["trace.overhead_pct"] = {
        (ratio(summary.ops_per_s, summarize(traced).ops_per_s) - 1.0) * 100.0,
        "%"};
  }

  std::printf("host: {\"nproc\": %u, \"threads\": %zu, \"cpu\": %s, "
              "\"compiler\": %s, \"build_type\": %s, \"workload\": %s, "
              "\"seed\": %llu}\n",
              std::thread::hardware_concurrency(), worker_threads(),
              json_string(cpu_model()).c_str(),
              json_string(PERFBENCH_COMPILER).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              json_string(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed));
  std::string line = "{\"correct\": ";
  line += violations == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value.first);
    line += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
            number + ", \"unit\": " + json_string(value.second) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  if (violations != 0) {
    std::fprintf(stderr, "perfbench: %llu security violations\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "perfbench: refusing to report from an unoptimised build "
               "(build type '%s')\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  perfbench::Options options;
  if (!perfbench::parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
