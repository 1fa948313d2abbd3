// auth_storm: the verifier re-authenticates a fleet.
//
// HSC-IoT mutual auth (core::AuthSessionMachine) runs on one reactor
// SessionEngine gated by an AdmissionController. Devices are
// hardware-speed fleet::SyntheticPuf instances whose CRPs set-up enrolls
// into a durable, sharded puf::CrpDatabase. The machine factory runs at
// admission: it looks the device's CRP up in the store and builds the
// session fixture in a recycled slot, so live memory is O(in-flight).
// Completion records the CRP's health in the store.
//
// Load is a closed loop of kInFlight sessions over rounds of kDevices
// honest sessions (each device once per round, in a seeded order). About
// 5% of submissions are faults::FloodAuthMachine attackers from a few
// client ids, and about 1% of honest devices sit behind a seeded lossy,
// delaying faults::FaultyChannel. An op is one converged honest session;
// its latency runs from admission (the factory call) to on_complete.
//
// The token buckets refill once per round and malformed frames are not
// charged back to a client's bucket, so every admission decision is a
// function of the submission order alone: admission counts repeat
// exactly for a seed at any thread count.
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/io.hpp"
#include "common/parallel.hpp"
#include "core/admission_control.hpp"
#include "core/mutual_auth.hpp"
#include "core/session_engine.hpp"
#include "crypto/sha256.hpp"
#include "faults/faulty_channel.hpp"
#include "faults/flood_adversary.hpp"
#include "fleet/synthetic_puf.hpp"
#include "perfbench.hpp"
#include "puf/crp_db.hpp"

namespace perfbench {
namespace {

using namespace neuropuls;

constexpr std::size_t kDevices = 4096;
constexpr std::size_t kInFlight = 64;
constexpr std::size_t kHostileEvery = 20;  // every 20th submission: ~5%
constexpr std::size_t kFaultyPerMille = 10;
constexpr std::size_t kAttackerIds = 4;
constexpr double kRoundsPerSecond = 43.0;
constexpr std::size_t kSegmentRounds = 1;

struct Layers {
  SpanStat lookup, record, sync, puf_evaluate;
  SpanStat admit_wait, request_to_response, response_to_confirm;
  Counter frames, bytes;
};

/// One live session's fixture. Slots are recycled: a slot is handed to
/// the next admitted session once on_complete released it.
struct Slot {
  std::optional<fleet::SyntheticPuf> puf;
  std::optional<TimingPuf> timed;
  // Declared before `faulty`, so the fault layer detaches first.
  std::optional<net::DuplexChannel> channel;
  std::optional<faults::FaultyChannel> faulty;
  std::optional<core::AuthDevice> device;
  std::optional<core::AuthVerifier> verifier;
  core::SessionMachine* machine = nullptr;  // owned by the engine
  faults::FloodAuthMachine* flood = nullptr;
  puf::Challenge challenge;
  bool hostile = false;
  Clock::time_point admitted{};
  Clock::time_point last_frame{};
  bool saw_frame = false;

  void clear() {
    verifier.reset();
    device.reset();
    faulty.reset();
    channel.reset();
    timed.reset();
    puf.reset();
    machine = nullptr;
    flood = nullptr;
    saw_frame = false;
  }
};

class AuthStorm {
 public:
  AuthStorm(const Options& options, bool traced)
      : trace_(traced ? &layers_ : nullptr),
        seed_(mix(options.seed ^ 0xA075A0ULL)),
        memory_(crypto::ChaChaDrbg(crypto::bytes_of("perfbench-auth-memory"))
                    .generate(256)),
        memory_hash_(crypto::Sha256::hash(memory_)),
        store_dir_("perfbench-auth"),
        store_(8, durability(store_dir_.path())),
        pool_(worker_threads()),
        admission_(admission_config()),
        slots_(kInFlight + 8) {
    // Enrollment: one CRP per device, the noiseless response as reference.
    std::vector<puf::Crp> crps;
    crps.reserve(kDevices);
    responses_.reserve(kDevices);
    for (std::size_t d = 0; d < kDevices; ++d) {
      const fleet::SyntheticPuf puf = make_puf(d);
      puf::Crp crp{challenge_of(d), {}};
      crp.response = puf.evaluate_noiseless(crp.challenge);
      responses_.push_back(crp.response);
      crps.push_back(std::move(crp));
    }
    store_.insert_batch(std::move(crps));
    store_.sync();

    for (std::size_t i = 0; i < slots_.size(); ++i) free_.push_back(i);
    core::SessionEngineConfig config;
    config.max_in_flight = kInFlight;
    config.admission = &admission_;
    config.on_complete = [this](std::size_t index) { on_complete(index); };
    engine_ = std::make_unique<core::SessionEngine>(pool_, config);

    PassResult warm;
    run_round(0, warm);
    if (warm.failed != 0 || warm.violations != 0) {
      throw std::runtime_error("auth_storm: warm-up round failed");
    }
    layers_ = Layers{};
  }

  void run(std::size_t rounds, PassResult& out) {
    const core::SessionEngineStats before = engine_->stats();
    const puf::CrpStoreStats store_before = store_.lock_stats();
    const std::uintmax_t wal_before = directory_bytes(store_dir_.path());
    honest_attempts_ = 0;
    honest_shed_ = 0;
    false_accepts_ = 0;
    Clock::time_point segment = Clock::now();
    for (std::size_t r = 1; r <= rounds; ++r) {
      run_round(r, out);
      if (r % kSegmentRounds == 0) end_segment(out, segment);
    }
    if (trace_ == nullptr) return;

    const core::SessionEngineStats& after = engine_->stats();
    const puf::CrpStoreStats store_after = store_.lock_stats();
    const double sessions = static_cast<double>(after.admitted - before.admitted);
    const double submitted = static_cast<double>(after.completed - before.completed);
    const double honest = static_cast<double>(out.attempted);
    const double ops = static_cast<double>(out.latency_us.size());
    const Layers& l = layers_;
    auto per_session = [&](std::uint64_t a, std::uint64_t b) {
      return ratio(static_cast<double>(a - b), sessions);
    };
    out.layers = {
        {"core.engine.admit_wait_us", l.admit_wait.mean_us()},
        {"core.engine.steps_per_session", per_session(after.steps, before.steps)},
        {"core.engine.parks_per_session", per_session(after.parks, before.parks)},
        {"core.engine.wakeups_per_session",
         per_session(after.wakeups, before.wakeups)},
        {"core.engine.steals_per_session",
         per_session(after.steals, before.steals)},
        {"core.engine.worker_parks",
         static_cast<double>(after.worker_parks - before.worker_parks)},
        {"core.engine.peak_queue_depth",
         static_cast<double>(after.peak_queue_depth)},
        {"core.admission.admitted",
         static_cast<double>(after.admitted - before.admitted)},
        {"core.admission.shed_ratio",
         ratio(static_cast<double>(after.shed_rate_limited + after.shed_memory -
                                   before.shed_rate_limited - before.shed_memory),
               submitted)},
        {"core.admission.evicted",
         static_cast<double>(after.evicted_half_open - before.evicted_half_open)},
        {"core.admission.malformed",
         static_cast<double>(after.malformed - before.malformed)},
        {"core.admission.honest_shed", static_cast<double>(honest_shed_)},
        {"core.admission.false_accepts", static_cast<double>(false_accepts_)},
        {"core.session.attempts_per_session",
         ratio(static_cast<double>(honest_attempts_), honest)},
        {"core.session.useful_ratio",
         ratio(ops, static_cast<double>(honest_attempts_))},
        {"net.frames_per_session",
         ratio(l.frames.get(), honest)},
        {"net.bytes_per_session",
         ratio(l.bytes.get(), honest)},
        {"core.auth.request_to_response_us", l.request_to_response.mean_us()},
        {"core.auth.response_to_confirm_us", l.response_to_confirm.mean_us()},
        {"puf.evaluate_us", l.puf_evaluate.mean_us()},
        {"puf.evaluations_per_op",
         ratio(static_cast<double>(l.puf_evaluate.calls.load()), ops)},
        {"puf.crp_db.lookup_us", l.lookup.mean_us()},
        {"puf.crp_db.record_us", l.record.mean_us()},
        {"puf.crp_db.sync_us", l.sync.mean_us()},
        {"puf.crp_db.contended_pct",
         100.0 * ratio(static_cast<double>(store_after.contended -
                                           store_before.contended),
                       static_cast<double>(store_after.acquisitions -
                                           store_before.acquisitions))},
        {"puf.crp_db.take_steals",
         static_cast<double>(store_after.take_steals - store_before.take_steals)},
        {"puf.crp_db.wal_bytes_per_op",
         ratio(static_cast<double>(directory_bytes(store_dir_.path()) -
                                   wal_before),
               ops)},
    };
  }

 private:
  static puf::CrpDurabilityOptions durability(const std::string& directory) {
    puf::CrpDurabilityOptions options;
    options.directory = directory;
    return options;
  }

  static core::AdmissionConfig admission_config() {
    core::AdmissionConfig config;
    config.client_slots = 2 * kDevices;
    config.bucket_capacity = 4;
    config.refill_every_ticks = 1;
    config.malformed_token_cost = 0;
    config.half_open_slots = 4 * kInFlight;
    config.half_open_per_client = 4;
    return config;
  }


  fleet::SyntheticPuf make_puf(std::size_t device) const {
    return fleet::SyntheticPuf({}, mix(seed_ ^ (device * 0x9E37ULL + 1)));
  }
  /// The device's enrolled challenge: a seeded word, little-endian, as
  /// SyntheticPuf reads challenges.
  puf::Challenge challenge_of(std::size_t device) const {
    const std::uint64_t word = mix(seed_ + device);
    puf::Challenge challenge(fleet::SyntheticPufParams{}.challenge_bytes);
    for (std::size_t i = 0; i < challenge.size(); ++i) {
      challenge[i] = static_cast<std::uint8_t>(word >> (8 * i));
    }
    return challenge;
  }
  bool faulty(std::size_t device) const {
    return mix(seed_ ^ ~device) % 1000 < kFaultyPerMille;
  }

  Slot& acquire(std::size_t index) {
    std::lock_guard<std::mutex> lock(free_mutex_);
    if (free_.empty()) throw std::logic_error("auth_storm: slot pool empty");
    const std::size_t slot = free_.back();
    free_.pop_back();
    slot_of_[index] = static_cast<std::int64_t>(slot);
    return slots_[slot];
  }

  void release(std::size_t slot) {
    std::lock_guard<std::mutex> lock(free_mutex_);
    free_.push_back(slot);
  }

  /// Builds the verifier side from the store, plus the channel.
  void open_fixture(Slot& s, std::size_t device) {
    s.admitted = Clock::now();
    s.challenge = challenge_of(device);
    std::optional<puf::Response> secret;
    {
      const Span span(trace_ ? &layers_.lookup : nullptr);
      secret = store_.lookup(s.challenge);
    }
    if (!secret) throw std::runtime_error("auth_storm: CRP missing from store");
    s.verifier.emplace(*secret, memory_hash_, s.challenge.size());
    s.channel.emplace();
  }

  void observe_frames(Slot& s) {
    s.channel->set_adversary([this, &s](net::Direction, const net::Message& m) {
      const Clock::time_point now = Clock::now();
      if (!s.saw_frame) layers_.admit_wait.add(ns_between(s.admitted, now));
      if (m.type == net::MessageType::kAuthResponse && s.saw_frame) {
        layers_.request_to_response.add(ns_between(s.last_frame, now));
      } else if (m.type == net::MessageType::kAuthConfirm && s.saw_frame) {
        layers_.response_to_confirm.add(ns_between(s.last_frame, now));
      }
      s.saw_frame = true;
      s.last_frame = now;
      return net::Verdict::pass();
    });
  }

  std::unique_ptr<core::SessionMachine> build_honest(
      std::size_t index, std::size_t device, std::uint64_t base,
      crypto::ChaChaDrbg& rng) {
    Slot& s = acquire(index);
    open_fixture(s, device);
    s.hostile = false;
    s.puf.emplace(make_puf(device));
    puf::Puf* puf = &*s.puf;
    if (trace_ != nullptr) puf = &s.timed.emplace(*s.puf, layers_.puf_evaluate);
    s.device.emplace(*puf, core::ProvisionedCrp{s.challenge, responses_[device]},
                     memory_);
    if (faulty(device)) {
      faults::LinkFaultRates rates;
      rates.drop = 0.002;
      rates.delay = 0.1;
      s.faulty.emplace(*s.channel, faults::symmetric_faults(rates),
                       mix(seed_ ^ base));
    } else if (trace_ != nullptr) {
      observe_frames(s);
    }
    auto machine = std::make_unique<core::AuthSessionMachine>(
        *s.channel, policy_, rng, *s.verifier, *s.device, base);
    s.machine = machine.get();
    return machine;
  }

  std::unique_ptr<core::SessionMachine> build_hostile(std::size_t index,
                                                      std::size_t device,
                                                      faults::FloodMode mode,
                                                      crypto::ChaChaDrbg& rng) {
    Slot& s = acquire(index);
    open_fixture(s, device);
    s.hostile = true;
    auto machine = std::make_unique<faults::FloodAuthMachine>(
        *s.channel, policy_, rng, *s.verifier, mode);
    s.flood = machine.get();
    return machine;
  }

  void on_complete(std::size_t index) {
    const std::int64_t slot = slot_of_[index];
    if (slot < 0) {  // shed at the gate: no fixture was built
      if (!hostile_[index]) ++honest_shed_;
      return;
    }
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    if (s.hostile) {
      false_accepts_ += s.flood->false_accepts();
    } else {
      latency_us_[index] =
          static_cast<double>(ns_between(s.admitted, Clock::now())) / 1e3;
      const bool converged =
          s.machine->report().result == core::SessionResult::kConverged;
      if (converged && !common::ct_equal(s.verifier->current_secret(),
                                         s.device->current_response())) {
        ++secret_mismatches_;
      }
      {
        const Span span(trace_ ? &layers_.record : nullptr);
        if (converged) {
          store_.record_success(s.challenge);
        } else {
          store_.record_failure(s.challenge);
        }
      }
      if (trace_ != nullptr) {
        for (const net::TranscriptEntry& entry : s.channel->transcript()) {
          layers_.frames.add();
          layers_.bytes.add(entry.message.payload.size());
        }
      }
    }
    s.clear();
    release(static_cast<std::size_t>(slot));
  }

  void run_round(std::size_t round, PassResult& out) {
    admission_.advance(1);
    const std::size_t hostile = kDevices / (kHostileEvery - 1);
    const std::size_t total = kDevices + hostile;
    slot_of_.assign(total, -1);
    hostile_.assign(total, false);
    latency_us_.assign(total, 0.0);
    // A seeded permutation of the fleet per round (odd stride, 2^k fleet).
    const std::uint64_t r = mix(seed_ ^ (round << 20));
    const std::size_t stride = (r | 1) % kDevices;
    const std::size_t offset = (r >> 32) % kDevices;
    std::size_t honest = 0;
    for (std::size_t k = 0; k < total; ++k) {
      const std::uint64_t seed = mix(r ^ k);
      const std::uint64_t base = (round + 1) << 32 | k << 4;
      core::SubmitOptions submit;
      submit.cost_bytes = 512;
      if (k % kHostileEvery == kHostileEvery - 1) {
        hostile_[k] = true;
        const std::size_t device = seed % kDevices;
        const auto mode = (k / kHostileEvery) % 4 == 3
                              ? faults::FloodMode::kHalfOpen
                              : faults::FloodMode::kMalformed;
        submit.client_id = 0xBAD0000 + (k / kHostileEvery) % kAttackerIds;
        engine_->submit(
            seed,
            [this, k, device, mode](crypto::ChaChaDrbg& rng) {
              return build_hostile(k, device, mode, rng);
            },
            submit);
      } else {
        const std::size_t device = (offset + honest++ * stride) % kDevices;
        submit.client_id = 0x600D0000 + device;
        engine_->submit(
            seed,
            [this, k, device, base](crypto::ChaChaDrbg& rng) {
              return build_honest(k, device, base, rng);
            },
            submit);
      }
    }
    const std::uint64_t false_accepts_before = false_accepts_;
    const std::vector<core::SessionReport> reports = engine_->run();
    {
      const Span span(trace_ ? &layers_.sync : nullptr);
      store_.sync();
    }
    for (std::size_t k = 0; k < total; ++k) {
      const bool converged = reports[k].result == core::SessionResult::kConverged;
      if (hostile_[k]) {
        if (converged) ++false_accepts_;
        continue;
      }
      ++out.attempted;
      honest_attempts_ += reports[k].attempts;
      if (converged) {
        out.latency_us.push_back(latency_us_[k]);
      } else {
        ++out.failed;
      }
    }
    out.violations += false_accepts_ - false_accepts_before +
                      secret_mismatches_.exchange(0);
  }

  Layers layers_;
  Layers* trace_;
  std::uint64_t seed_;
  crypto::Bytes memory_;
  crypto::Bytes memory_hash_;
  std::vector<puf::Response> responses_;  // device-side provisioned CRPs
  common::io::TempDir store_dir_;
  puf::CrpDatabase store_;
  common::ThreadPool pool_;
  core::AdmissionController admission_;
  const core::RetryPolicy policy_{};
  std::vector<Slot> slots_;
  std::mutex free_mutex_;
  std::vector<std::size_t> free_;
  std::unique_ptr<core::SessionEngine> engine_;
  // Per round, indexed by submission.
  std::vector<std::int64_t> slot_of_;
  std::vector<bool> hostile_;
  std::vector<double> latency_us_;
  std::atomic<std::uint64_t> false_accepts_{0};
  std::atomic<std::uint64_t> honest_shed_{0};
  std::atomic<std::uint64_t> secret_mismatches_{0};
  std::uint64_t honest_attempts_ = 0;
};

}  // namespace

PassResult run_auth_storm(const Options& options, Mode mode) {
  const Clock::time_point start = Clock::now();
  AuthStorm workload(options, mode == Mode::kTraced);
  PassResult out;
  out.setup_s = static_cast<double>(ns_between(start, Clock::now())) / 1e9;
  if (mode != Mode::kSetupOnly) {
    workload.run(scaled(kRoundsPerSecond, options, kSegmentRounds), out);
  }
  return out;
}

}  // namespace perfbench
