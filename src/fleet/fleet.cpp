#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/alloc_probe.hpp"
#include "common/parallel.hpp"
#include "core/mutual_auth.hpp"
#include "core/session_engine.hpp"
#include "crypto/sha256.hpp"
#include "metrics/population.hpp"
#include "net/channel.hpp"

namespace neuropuls::fleet {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kDeviceTag = 0x64657669'63657461ULL;     // "deviceta"
constexpr std::uint64_t kChallengeTag = 0x6368616c'6c656e67ULL;  // "challeng"
constexpr std::uint64_t kFaultTag = 0x6661756c'74746167ULL;      // "faulttag"
constexpr std::uint64_t kSampleTag = 0x73616d70'6c657461ULL;     // "sampleta"
constexpr std::uint64_t kSessionTag = 0x73657373'696f6e74ULL;    // "sessiont"
/// GK sketch accuracy for session-latency quantiles.
constexpr double kLatencySketchEps = 0.01;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

MemoryProbe MemoryProbe::read() {
  MemoryProbe probe;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return probe;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) {
      probe.vm_rss_bytes = static_cast<std::size_t>(kb) * 1024;
    } else if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      probe.vm_hwm_bytes = static_cast<std::size_t>(kb) * 1024;
    }
  }
  std::fclose(f);
  return probe;
}

FleetSimulator::FleetSimulator(FleetConfig config, puf::CrpDatabase& db)
    : config_(std::move(config)), db_(db) {
  if (config_.devices == 0) {
    throw std::invalid_argument("FleetSimulator: need at least one device");
  }
  if (config_.generations == 0) config_.generations = 1;
  if (config_.enroll_chunk == 0) config_.enroll_chunk = 1;
  if (config_.wave_size == 0) config_.wave_size = 1;
  states_.assign(config_.devices, DeviceState{});
  // One shared memory snapshot: the fleet models homogeneous firmware;
  // per-device images would cost O(fleet) bytes for no protocol signal.
  device_memory_ = crypto::bytes_of("neuropuls-fleet-firmware-image-v1");
  memory_hash_ = crypto::Sha256::hash(device_memory_);
}

common::ThreadPool& FleetSimulator::pool() const {
  return config_.pool != nullptr ? *config_.pool
                                 : common::ThreadPool::global();
}

std::uint64_t FleetSimulator::device_seed(std::size_t device) const noexcept {
  return metrics::mix64(config_.seed ^ kDeviceTag ^
                        (static_cast<std::uint64_t>(device) * kGolden));
}

std::uint64_t FleetSimulator::challenge_word(
    std::size_t device, std::uint32_t generation) const noexcept {
  // Two mixing rounds keyed on (fleet, device) then generation: 2M draws
  // from a 64-bit space make a cross-device collision vanishingly rare,
  // and the derivation is stateless — any worker (or a post-crash
  // simulator) recomputes any device's challenge schedule from the seed.
  const std::uint64_t device_key = metrics::mix64(
      config_.seed ^ kChallengeTag ^
      (static_cast<std::uint64_t>(device) * kGolden));
  return metrics::mix64(device_key +
                        static_cast<std::uint64_t>(generation) *
                            0xda3e39cb94b95bdbULL);
}

puf::Challenge FleetSimulator::challenge_of(std::size_t device,
                                            std::uint32_t generation) const {
  puf::Challenge challenge(config_.puf.challenge_bytes, 0);
  const std::uint64_t word = challenge_word(device, generation);
  std::memcpy(challenge.data(), &word,
              std::min<std::size_t>(config_.puf.challenge_bytes, 8));
  return challenge;
}

SyntheticPuf FleetSimulator::make_device(std::size_t device) const {
  const std::uint64_t seed = device_seed(device);
  SyntheticPuf puf(config_.puf, seed,
                   faults::device_drift_config(config_.drift, config_.seed,
                                               device),
                   seed ^ kFaultTag);
  puf.set_day(day_);
  return puf;
}

puf::Crp FleetSimulator::harvest(const SyntheticPuf& puf, std::size_t device,
                                 std::uint32_t generation) const {
  const std::uint64_t word = challenge_word(device, generation);
  puf::Crp crp;
  crp.challenge = puf.challenge_bytes_of(word);
  crp.response.resize(config_.puf.response_bytes);
  puf.evaluate_noiseless_into(word, crp.response.data());
  return crp;
}

bool FleetSimulator::device_faulty(std::size_t device) const noexcept {
  return metrics::hash_sample(config_.seed ^ kFaultTag, device,
                              config_.faulty_device_rate);
}

void FleetSimulator::refresh_cursor(std::size_t device) {
  DeviceState& s = states_[device];
  while (s.oldest < s.next &&
         !db_.health(challenge_of(device, s.oldest)).has_value()) {
    ++s.oldest;
  }
}

std::size_t FleetSimulator::count_keyless() const {
  std::size_t keyless = 0;
  for (std::size_t d = 0; d < states_.size(); ++d) {
    if ((states_[d].flags & kRevoked) != 0) continue;
    if (states_[d].oldest >= states_[d].next) ++keyless;
  }
  return keyless;
}

void FleetSimulator::check_memory_budget(const char* where) const {
  if (config_.memory_budget_bytes == 0) return;
  const std::uint64_t probe_peak = common::alloc_probe::peak_bytes();
  const MemoryProbe vm = MemoryProbe::read();
  const std::uint64_t peak =
      std::max<std::uint64_t>(probe_peak, vm.vm_hwm_bytes);
  if (peak > config_.memory_budget_bytes) {
    throw std::runtime_error(
        std::string("FleetSimulator: memory budget exceeded in ") + where +
        ": peak " + std::to_string(peak) + " > budget " +
        std::to_string(config_.memory_budget_bytes));
  }
}

EnrollReport FleetSimulator::enroll() {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t gens = config_.generations;
  const double sample_rate =
      config_.uniqueness_sample_target == 0
          ? 0.0
          : static_cast<double>(config_.uniqueness_sample_target) /
                static_cast<double>(config_.devices);
  std::vector<crypto::Bytes> samples;
  samples.reserve(config_.uniqueness_sample_target * 2);

  EnrollReport report;
  for (std::size_t chunk_start = 0; chunk_start < config_.devices;
       chunk_start += config_.enroll_chunk) {
    const std::size_t chunk =
        std::min(config_.enroll_chunk, config_.devices - chunk_start);
    // Per-chunk staging: slots are preallocated and written by index, so
    // workers never contend and the chunk's layout is schedule-free.
    std::vector<puf::Crp> staging(chunk * gens);
    pool().parallel_for(chunk, [&](std::size_t i) {
      const std::size_t device = chunk_start + i;
      const SyntheticPuf puf = make_device(device);
      for (std::size_t g = 0; g < gens; ++g) {
        staging[i * gens + g] =
            harvest(puf, device, static_cast<std::uint32_t>(g));
      }
    });
    // Order-independent sampling before the staging buffer moves into
    // the store: the sampled *set* is a pure function of (seed, id), so
    // any chunking/thread count selects the same devices; gathering in
    // device order keeps the sample vector deterministic too.
    if (sample_rate > 0.0) {
      for (std::size_t i = 0; i < chunk; ++i) {
        if (metrics::hash_sample(config_.seed ^ kSampleTag, chunk_start + i,
                                 sample_rate)) {
          samples.push_back(staging[i * gens].response);
        }
      }
    }
    db_.insert_batch(std::move(staging));
    for (std::size_t i = 0; i < chunk; ++i) {
      states_[chunk_start + i] =
          DeviceState{0, static_cast<std::uint32_t>(gens), 0};
    }
    check_memory_budget("enroll");
  }
  db_.sync();

  report.devices = config_.devices;
  report.crps = config_.devices * gens;
  report.sampled_devices = samples.size();
  if (samples.size() >= 2) {
    report.uniqueness_estimate = metrics::uniqueness(samples, &pool());
  }
  report.seconds = seconds_since(start);
  report.peak_rss_bytes = MemoryProbe::read().vm_hwm_bytes;
  return report;
}

EnrollReport FleetSimulator::enroll_naive_serial() {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t gens = config_.generations;
  for (std::size_t device = 0; device < config_.devices; ++device) {
    SyntheticPuf puf = make_device(device);
    for (std::size_t g = 0; g < gens; ++g) {
      const puf::Challenge challenge =
          challenge_of(device, static_cast<std::uint32_t>(g));
      puf::Crp crp;
      crp.challenge = challenge;
      crp.response = puf.evaluate_noiseless(challenge);
      db_.insert(std::move(crp));
    }
    // The pre-fleet durability idiom: every device's enrollment is
    // individually committed before moving on.
    db_.sync();
    states_[device] = DeviceState{0, static_cast<std::uint32_t>(gens), 0};
  }
  EnrollReport report;
  report.devices = config_.devices;
  report.crps = config_.devices * gens;
  report.seconds = seconds_since(start);
  report.peak_rss_bytes = MemoryProbe::read().vm_hwm_bytes;
  return report;
}

FleetSimulator::WaveOutcome FleetSimulator::run_wave(
    const std::vector<std::size_t>& wave, std::uint64_t campaign_nonce,
    metrics::GkQuantileSketch& wave_ticks,
    std::vector<std::size_t>* rotate_out) {
  struct SessionFixture {
    SyntheticPuf puf;
    net::DuplexChannel channel;
    std::unique_ptr<faults::FaultyChannel> faulty;
    std::unique_ptr<core::AuthDevice> device;
    std::unique_ptr<core::AuthVerifier> verifier;
    std::size_t device_id = 0;
    std::uint32_t generation = 0;
    puf::Challenge challenge;

    explicit SessionFixture(SyntheticPuf p) : puf(std::move(p)) {}
  };

  WaveOutcome outcome;
  std::vector<std::unique_ptr<SessionFixture>> fixtures;
  fixtures.reserve(wave.size());

  core::SessionEngineConfig engine_config;
  engine_config.max_in_flight = std::min<std::size_t>(wave.size(), 128);
  core::SessionEngine engine(pool(), engine_config);
  const core::RetryPolicy policy;

  for (std::size_t k = 0; k < wave.size(); ++k) {
    const std::size_t device = wave[k];
    if ((states_[device].flags & kRevoked) != 0) {
      ++outcome.skipped;
      continue;
    }
    refresh_cursor(device);
    // Serve the first non-quarantined live generation: a device whose
    // oldest CRP is quarantined can still authenticate on a spare.
    DeviceState& s = states_[device];
    std::uint32_t gen = s.oldest;
    std::optional<puf::Response> secret;
    puf::Challenge challenge;
    for (; gen < s.next; ++gen) {
      challenge = challenge_of(device, gen);
      secret = db_.lookup(challenge);
      if (secret.has_value()) break;
    }
    if (!secret.has_value()) {
      ++outcome.skipped;
      continue;
    }
    auto fixture = std::make_unique<SessionFixture>(make_device(device));
    fixture->device_id = device;
    fixture->generation = gen;
    fixture->challenge = std::move(challenge);
    if (device_faulty(device)) {
      fixture->faulty = std::make_unique<faults::FaultyChannel>(
          fixture->channel, faults::symmetric_faults(config_.fault_rates),
          device_seed(device) ^ campaign_nonce);
    }
    fixture->device = std::make_unique<core::AuthDevice>(
        fixture->puf,
        core::ProvisionedCrp{fixture->challenge, *secret},
        device_memory_);
    fixture->verifier = std::make_unique<core::AuthVerifier>(
        *secret, memory_hash_, config_.puf.challenge_bytes);

    SessionFixture& f = *fixture;
    const std::uint64_t session_base =
        kSessionTag ^ (campaign_nonce << 20) ^ (k + 1);
    engine.submit(metrics::mix64(device_seed(device) ^ campaign_nonce),
                  [&f, &policy, session_base](crypto::ChaChaDrbg& rng) {
                    return std::make_unique<core::AuthSessionMachine>(
                        f.channel, policy, rng, *f.verifier, *f.device,
                        session_base);
                  });
    fixtures.push_back(std::move(fixture));
  }

  const std::vector<core::SessionReport> reports = engine.run();
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const core::SessionReport& report = reports[k];
    SessionFixture& f = *fixtures[k];
    wave_ticks.add(static_cast<double>(report.poll_ticks));
    outcome.attempts_sum += report.attempts;
    if (report.result == core::SessionResult::kConverged) {
      ++outcome.converged;
      db_.record_success(f.challenge);
      if (rotate_out != nullptr) rotate_out->push_back(f.device_id);
    } else {
      ++outcome.failed;
      db_.record_failure(f.challenge);
    }
  }
  return outcome;
}

CampaignReport FleetSimulator::run_auth_campaign(std::size_t sessions) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t nonce = ++campaign_counter_;
  CampaignReport report;
  report.poll_ticks = metrics::GkQuantileSketch(kLatencySketchEps);
  std::vector<std::size_t> wave;
  wave.reserve(config_.wave_size);
  double attempts_sum = 0.0;
  for (std::size_t issued = 0; issued < sessions;) {
    wave.clear();
    while (wave.size() < config_.wave_size && issued < sessions) {
      wave.push_back(issued % config_.devices);
      ++issued;
    }
    // Worker-local-style sketch per wave, merged into the campaign
    // sketch: the mergeable-summary path a sharded verifier tier uses.
    metrics::GkQuantileSketch wave_ticks(kLatencySketchEps);
    const WaveOutcome outcome = run_wave(wave, nonce, wave_ticks, nullptr);
    report.poll_ticks.merge(wave_ticks);
    report.converged += outcome.converged;
    report.failed += outcome.failed;
    report.skipped += outcome.skipped;
    attempts_sum += outcome.attempts_sum;
    check_memory_budget("auth campaign");
  }
  report.poll_ticks.compress();
  report.sessions = sessions;
  const std::size_t completed = report.converged + report.failed;
  report.mean_attempts =
      completed == 0 ? 0.0 : attempts_sum / static_cast<double>(completed);
  report.seconds = seconds_since(start);
  return report;
}

CampaignReport FleetSimulator::run_rotation_sweep() {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t nonce = ++campaign_counter_;
  CampaignReport report;
  report.poll_ticks = metrics::GkQuantileSketch(kLatencySketchEps);
  std::vector<std::size_t> wave;
  wave.reserve(config_.wave_size);
  std::vector<std::size_t> rotate;
  rotate.reserve(config_.wave_size);
  std::vector<puf::Crp> staging;
  double attempts_sum = 0.0;

  for (std::size_t first = 0; first < config_.devices;
       first += config_.wave_size) {
    const std::size_t count =
        std::min(config_.wave_size, config_.devices - first);
    wave.clear();
    for (std::size_t i = 0; i < count; ++i) wave.push_back(first + i);
    rotate.clear();
    metrics::GkQuantileSketch wave_ticks(kLatencySketchEps);
    const WaveOutcome outcome = run_wave(wave, nonce, wave_ticks, &rotate);
    report.poll_ticks.merge(wave_ticks);
    report.converged += outcome.converged;
    report.failed += outcome.failed;
    report.skipped += outcome.skipped;
    attempts_sum += outcome.attempts_sum;

    staging.clear();
    staging.reserve(rotate.size());
    for (const std::size_t device : rotate) {
      staging.push_back(
          harvest(make_device(device), device, states_[device].next));
    }
    commit_rotation(rotate, std::move(staging));
    report.rotated += rotate.size();
    check_memory_budget("rotation sweep");
  }
  report.poll_ticks.compress();
  report.sessions = config_.devices;
  const std::size_t completed = report.converged + report.failed;
  report.mean_attempts =
      completed == 0 ? 0.0 : attempts_sum / static_cast<double>(completed);
  report.seconds = seconds_since(start);
  return report;
}

void FleetSimulator::commit_rotation(const std::vector<std::size_t>& devices,
                                     std::vector<puf::Crp> replacements) {
  // Crash-safe rotation order: durably insert every replacement CRP,
  // barrier, then consume the old ones. A crash anywhere in this
  // sequence leaves each device with >= 1 live CRP.
  db_.insert_batch(std::move(replacements));
  db_.sync();
  std::vector<puf::Challenge> retired;
  retired.reserve(devices.size());
  for (const std::size_t device : devices) {
    retired.push_back(challenge_of(device, states_[device].oldest));
  }
  const auto taken = db_.take_batch(retired);
  for (std::size_t k = 0; k < devices.size(); ++k) {
    DeviceState& s = states_[devices[k]];
    if (taken[k].has_value()) ++s.oldest;
    ++s.next;
    refresh_cursor(devices[k]);
  }
}

void FleetSimulator::recover_state(std::uint32_t generation_limit) {
  // Presence via health(): quarantined CRPs still exist (and must block
  // the "keyless" verdict) even though lookup() refuses to serve them.
  for (std::size_t device = 0; device < states_.size(); ++device) {
    std::uint32_t oldest = generation_limit;
    std::uint32_t next = 0;
    for (std::uint32_t g = 0; g < generation_limit; ++g) {
      if (db_.health(challenge_of(device, g)).has_value()) {
        if (oldest == generation_limit) oldest = g;
        next = g + 1;
      }
    }
    if (next == 0) {
      states_[device] = DeviceState{0, 0, states_[device].flags};
    } else {
      states_[device] = DeviceState{oldest, next, states_[device].flags};
    }
  }
}

ResumeReport FleetSimulator::resume_rotation() {
  // Completes the most recent rotation sweep after a crash +
  // recover_state(): each device is in exactly one of three legal
  // states, distinguishable from its recovered generation window.
  ResumeReport report;
  const auto enrolled = static_cast<std::uint32_t>(config_.generations);
  std::vector<puf::Crp> staging;
  std::vector<std::size_t> redo;
  std::vector<std::size_t> finish;
  std::vector<puf::Challenge> retired;
  for (std::size_t device = 0; device < states_.size(); ++device) {
    DeviceState& s = states_[device];
    if ((s.flags & kRevoked) != 0) continue;
    if (s.oldest >= s.next) {
      ++report.keyless;
      continue;
    }
    if (s.oldest >= 1) {
      // Old CRP consumed and replacement durable: the rotation's take
      // committed before the crash.
      ++report.already_rotated;
    } else if (s.next > enrolled) {
      // Replacement durable but the old CRP still live: finish the take.
      finish.push_back(device);
      retired.push_back(challenge_of(device, s.oldest));
      ++report.finished_takes;
    } else {
      // The replacement insert never reached stable storage: redo the
      // whole rotation for this device.
      staging.push_back(harvest(make_device(device), device, s.next));
      redo.push_back(device);
      ++report.redone;
    }
  }
  const auto taken = db_.take_batch(retired);
  for (std::size_t k = 0; k < finish.size(); ++k) {
    if (taken[k].has_value()) ++states_[finish[k]].oldest;
    refresh_cursor(finish[k]);
  }
  if (!redo.empty()) commit_rotation(redo, std::move(staging));
  return report;
}

std::size_t FleetSimulator::run_revocation_sweep(std::size_t first,
                                                 std::size_t count) {
  const std::size_t last = std::min(first + count, config_.devices);
  std::vector<puf::Challenge> revoked;
  for (std::size_t device = first; device < last; ++device) {
    DeviceState& s = states_[device];
    for (std::uint32_t g = s.oldest; g < s.next; ++g) {
      revoked.push_back(challenge_of(device, g));
    }
    s.oldest = s.next;
    s.flags |= kRevoked;
  }
  // Keyed takes refuse quarantined CRPs; those are swept separately by
  // evict_quarantined() — revocation only consumes live pairs.
  const auto taken = db_.take_batch(revoked);
  return static_cast<std::size_t>(
      std::count_if(taken.begin(), taken.end(),
                    [](const auto& crp) { return crp.has_value(); }));
}

std::size_t FleetSimulator::reenroll_quarantined() {
  // Identify affected devices before evicting: after eviction the
  // quarantined entries (and their health records) are gone.
  std::vector<std::size_t> affected;
  for (std::size_t device = 0; device < states_.size(); ++device) {
    const DeviceState& s = states_[device];
    if ((s.flags & kRevoked) != 0) continue;
    for (std::uint32_t g = s.oldest; g < s.next; ++g) {
      const auto health = db_.health(challenge_of(device, g));
      if (health.has_value() && health->quarantined) {
        affected.push_back(device);
        break;
      }
    }
  }
  if (affected.empty()) return 0;
  db_.evict_quarantined();
  // Fresh-generation replacement per device: the quarantined pair may be
  // compromised, so its challenge is never reused.
  std::vector<puf::Crp> staging;
  staging.reserve(affected.size());
  for (const std::size_t device : affected) {
    staging.push_back(
        harvest(make_device(device), device, states_[device].next));
  }
  db_.insert_batch(std::move(staging));
  db_.sync();
  for (const std::size_t device : affected) {
    ++states_[device].next;
    refresh_cursor(device);
  }
  return affected.size();
}

}  // namespace neuropuls::fleet
