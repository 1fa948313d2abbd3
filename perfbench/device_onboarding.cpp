// device_onboarding: time to first secure inference, one device at a
// time on one thread.
//
// Set-up fabricates small photonic PUF devices, enrolls each one's fuzzy
// extractor helper data, and provisions its first CRP into the verifier's
// store. Each op onboards one device (round-robin):
//
//   1. boot: KeyManager::derive re-creates the device keys from the PUF;
//   2. the verifier looks the device's CRP up in the store;
//   3. HSC-IoT mutual auth through the AuthVerifier/AuthDevice methods;
//   4. EKE on MODP-2048, keyed by the CRP response the auth rotated to;
//   5. a SecureChannel pair from the two EKE session keys;
//   6. encrypt_network, carried over the channel, then load_network;
//   7. one execute_network whose output must match a DigitalMvm reference.
//
// The protocol endpoints are called directly, so the session engine does
// no work here; this is the workload of the photonic PUF, the fuzzy
// extractor, bignum modexp and bulk AES.
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "accel/accelerator.hpp"
#include "accel/network.hpp"
#include "accel/secure_api.hpp"
#include "core/aka_eke.hpp"
#include "core/key_manager.hpp"
#include "core/mutual_auth.hpp"
#include "core/secure_channel.hpp"
#include "crypto/dh.hpp"
#include "crypto/prng.hpp"
#include "crypto/sha256.hpp"
#include "perfbench.hpp"
#include "puf/crp_db.hpp"
#include "puf/photonic_puf.hpp"

namespace perfbench {
namespace {

using namespace neuropuls;

constexpr std::size_t kDevices = 4;
constexpr std::size_t kWidth = 16;
constexpr std::size_t kWarmup = 2;  // untimed onboardings inside set-up
constexpr unsigned kDeriveTries = 3;
constexpr double kOpsPerSecond = 85.0;
constexpr std::size_t kSegmentOps = 16;

struct Layers {
  SpanStat derive, puf_evaluate, lookup;
  SpanStat verifier_start, device_request, verifier_process, device_confirm;
  SpanStat initiate, respond, confirm, finalize;
  SpanStat seal, open, encrypt_network, load_network;
  SpanStat encrypt_input, execute_network, decrypt_output;
  std::uint64_t derive_self_ns = 0;
  std::uint64_t derive_retries = 0;
  std::uint64_t record_bytes = 0;
};

struct Device {
  std::unique_ptr<puf::PhotonicPuf> puf;
  std::unique_ptr<TimingPuf> timed;  // traced passes only
  puf::Puf* seen = nullptr;          // what the firmware evaluates
  std::unique_ptr<core::KeyManager> key_manager;
  core::DeviceKeyRecord key_record;
  core::ProvisionedCrp nvm_crp;  // the device's provisioned CRP
  std::vector<double> input;
  std::vector<double> expected;
};

class DeviceOnboarding {
 public:
  DeviceOnboarding(const Options& options, bool traced)
      : trace_(traced ? &layers_ : nullptr),
        seed_(mix(options.seed ^ 0x0B0A2DULL)),
        rng_(crypto::bytes_of("perfbench-onboarding-" + std::to_string(seed_))),
        memory_(rng_.generate(1024)),
        memory_hash_(crypto::Sha256::hash(memory_)),
        network_(accel::make_random_network({kWidth, kWidth, kWidth}, seed_)) {
    accel::Accelerator reference(std::make_unique<accel::DigitalMvm>());
    reference.load(network_);
    rng::Xoshiro256 values(seed_);
    for (std::size_t d = 0; d < kDevices; ++d) {
      Device& device = devices_[d];
      device.puf = std::make_unique<puf::PhotonicPuf>(
          puf::small_photonic_config(), seed_, d);
      device.seen = device.puf.get();
      if (traced) {
        device.timed =
            std::make_unique<TimingPuf>(*device.puf, layers_.puf_evaluate);
        device.seen = device.timed.get();
      }
      device.key_manager = std::make_unique<core::KeyManager>(*device.seen);
      device.key_record = device.key_manager->enroll(rng_);
      core::ProvisioningResult provisioned = core::provision(*device.puf, rng_);
      store_.insert({provisioned.device_crp.challenge,
                     provisioned.verifier_secret});
      device.nvm_crp = std::move(provisioned.device_crp);
      device.input.resize(kWidth);
      for (double& v : device.input) v = values.uniform() * 2.0 - 1.0;
      device.expected = reference.infer(device.input);
    }
    PassResult warm;
    for (std::size_t i = 0; i < kWarmup; ++i) onboard(i, warm);
    if (warm.failed != 0 || warm.violations != 0) {
      throw std::runtime_error("device_onboarding: warm-up onboarding failed");
    }
    layers_ = Layers{};
  }

  std::optional<core::DeviceKeys> boot(Device& device) {
    const Span span(trace_ ? &layers_.derive : nullptr);
    const std::uint64_t puf_ns_before = layers_.puf_evaluate.ns.load();
    const Clock::time_point start = Clock::now();
    std::optional<core::DeviceKeys> keys;
    for (unsigned t = 0; t < kDeriveTries && !keys; ++t) {
      if (t > 0) ++layers_.derive_retries;
      keys = device.key_manager->derive(device.key_record);
    }
    if (!keys) {
      ++layers_.derive_retries;
      keys = device.key_manager->derive_robust(device.key_record);
    }
    if (trace_ != nullptr) {
      const std::uint64_t total = ns_between(start, Clock::now());
      const std::uint64_t puf_ns = layers_.puf_evaluate.ns.load() - puf_ns_before;
      layers_.derive_self_ns += total > puf_ns ? total - puf_ns : 0;
    }
    return keys;
  }

  void onboard(std::size_t i, PassResult& out) {
    Device& device = devices_[i % kDevices];
    const std::uint64_t sid = 2 * i + 1;
    ++out.attempted;
    const Clock::time_point start = Clock::now();

    // 1. boot.
    const std::optional<core::DeviceKeys> keys = boot(device);
    if (!keys) {
      ++out.failed;
      return;
    }
    // 2. the verifier's CRP for this device.
    std::optional<puf::Response> secret;
    {
      const Span span(trace_ ? &layers_.lookup : nullptr);
      secret = store_.lookup(device.nvm_crp.challenge);
    }
    if (!secret) {
      ++out.failed;
      return;
    }
    // 3. mutual auth, endpoint by endpoint.
    core::AuthVerifier verifier(*secret, memory_hash_,
                                device.puf->challenge_bytes());
    core::AuthDevice auth_device(*device.seen, device.nvm_crp, memory_);
    net::Message request;
    {
      const Span span(trace_ ? &layers_.verifier_start : nullptr);
      request = verifier.start(sid, mix(seed_ ^ sid));
    }
    std::optional<net::Message> response;
    {
      const Span span(trace_ ? &layers_.device_request : nullptr);
      response = auth_device.handle_request(request);
    }
    if (!response) {
      ++out.failed;
      return;
    }
    core::AuthVerifier::Outcome outcome;
    {
      const Span span(trace_ ? &layers_.verifier_process : nullptr);
      outcome = verifier.process_response(*response);
    }
    if (outcome.status != core::AuthStatus::kOk || !outcome.confirm) {
      ++out.failed;
      return;
    }
    core::AuthStatus confirmed = core::AuthStatus::kMalformed;
    {
      const Span span(trace_ ? &layers_.device_confirm : nullptr);
      confirmed = auth_device.handle_confirm(*outcome.confirm);
    }
    if (confirmed != core::AuthStatus::kOk) {
      ++out.failed;
      return;
    }
    if (!common::ct_equal(verifier.current_secret(),
                          auth_device.current_response())) {
      ++out.failed, ++out.violations;
      return;
    }

    // 4. EKE keyed by the rotated CRP response.
    const auto& group = crypto::DhGroup::modp2048();
    std::optional<core::EkeParty> initiator;
    std::optional<core::EkeParty> responder;
    net::Message hello;
    {
      const Span span(trace_ ? &layers_.initiate : nullptr);
      initiator.emplace(crypto::Bytes(verifier.current_secret().reveal().begin(),
                                      verifier.current_secret().reveal().end()),
                        group, crypto::ChaChaDrbg(rng_.generate(32)));
      hello = initiator->initiate(sid);
    }
    std::optional<net::Message> server_hello;
    {
      const Span span(trace_ ? &layers_.respond : nullptr);
      responder.emplace(
          crypto::Bytes(auth_device.current_response().reveal().begin(),
                        auth_device.current_response().reveal().end()),
          group, crypto::ChaChaDrbg(rng_.generate(32)));
      server_hello = responder->respond(hello);
    }
    std::optional<net::Message> client_confirm;
    if (server_hello) {
      const Span span(trace_ ? &layers_.confirm : nullptr);
      client_confirm = initiator->confirm(*server_hello);
    }
    bool finalized = false;
    if (client_confirm) {
      const Span span(trace_ ? &layers_.finalize : nullptr);
      finalized = responder->finalize(*client_confirm);
    }
    if (!finalized) {
      ++out.failed;
      return;
    }
    if (!common::ct_equal(initiator->session_key(), responder->session_key())) {
      ++out.failed, ++out.violations;
      return;
    }

    // 5. the record channel pair.
    core::SecureChannel verifier_channel(initiator->session_key().clone(), true);
    core::SecureChannel device_channel(responder->session_key().clone(), false);

    // 6. the ciphered network crosses the channel and is loaded.
    const crypto::ByteView key = keys->encryption_key.reveal();
    crypto::Bytes blob;
    {
      const Span span(trace_ ? &layers_.encrypt_network : nullptr);
      blob = accel::SecureAccelerator::encrypt_network(network_, key, 2 * sid);
    }
    crypto::Bytes record;
    {
      const Span span(trace_ ? &layers_.seal : nullptr);
      record = verifier_channel.seal(blob);
    }
    std::optional<crypto::Bytes> carried;
    {
      const Span span(trace_ ? &layers_.open : nullptr);
      carried = device_channel.open(record);
    }
    if (!carried || verifier_channel.poisoned() || device_channel.poisoned()) {
      ++out.failed, ++out.violations;
      return;
    }
    layers_.record_bytes += record.size();
    accel::SecureAccelerator accelerator(std::make_unique<accel::DigitalMvm>(),
                                         keys->encryption_key.clone());
    {
      const Span span(trace_ ? &layers_.load_network : nullptr);
      accelerator.load_network(*carried);
    }

    // 7. the first inference, checked.
    crypto::Bytes ciphered_input;
    {
      const Span span(trace_ ? &layers_.encrypt_input : nullptr);
      ciphered_input = accel::SecureAccelerator::encrypt_input(device.input,
                                                               key, 2 * sid + 1);
    }
    crypto::Bytes ciphered_output;
    {
      const Span span(trace_ ? &layers_.execute_network : nullptr);
      ciphered_output = accelerator.execute_network(ciphered_input);
    }
    std::vector<double> output;
    {
      const Span span(trace_ ? &layers_.decrypt_output : nullptr);
      output = accel::SecureAccelerator::decrypt_output(ciphered_output, key);
    }
    out.latency_us.push_back(
        static_cast<double>(ns_between(start, Clock::now())) / 1e3);
    if (output.size() != device.expected.size() ||
        std::memcmp(output.data(), device.expected.data(),
                    output.size() * sizeof(double)) != 0) {
      ++out.failed, ++out.violations;
    }
  }

  void run(std::size_t ops, PassResult& out) {
    out.latency_us.reserve(ops);
    Clock::time_point segment = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      onboard(kWarmup + i, out);
      if ((i + 1) % kSegmentOps == 0) end_segment(out, segment);
    }
    if (trace_ == nullptr) return;
    const double n = static_cast<double>(out.attempted);
    const Layers& l = layers_;
    out.layers = {
        {"core.key_manager.derive_us", l.derive.mean_us()},
        {"core.key_manager.derive_self_us",
         ratio(static_cast<double>(l.derive_self_ns) / 1e3,
               static_cast<double>(l.derive.calls.load()))},
        {"core.key_manager.derive_retries",
         static_cast<double>(l.derive_retries)},
        {"puf.evaluate_us", l.puf_evaluate.mean_us()},
        {"puf.evaluations_per_op",
         ratio(static_cast<double>(l.puf_evaluate.calls.load()), n)},
        {"puf.crp_db.lookup_us", l.lookup.mean_us()},
        {"core.auth.verifier_start_us", l.verifier_start.mean_us()},
        {"core.auth.device_request_us", l.device_request.mean_us()},
        {"core.auth.verifier_process_us", l.verifier_process.mean_us()},
        {"core.auth.device_confirm_us", l.device_confirm.mean_us()},
        {"core.eke.initiate_us", l.initiate.mean_us()},
        {"core.eke.respond_us", l.respond.mean_us()},
        {"core.eke.confirm_us", l.confirm.mean_us()},
        {"core.eke.finalize_us", l.finalize.mean_us()},
        {"core.channel.seal_us", l.seal.mean_us()},
        {"core.channel.open_us", l.open.mean_us()},
        {"core.channel.record_bytes",
         ratio(static_cast<double>(l.record_bytes), n)},
        {"accel.encrypt_network_us", l.encrypt_network.mean_us()},
        {"accel.load_network_us", l.load_network.mean_us()},
        {"accel.encrypt_input_us", l.encrypt_input.mean_us()},
        {"accel.execute_network_us", l.execute_network.mean_us()},
        {"accel.decrypt_output_us", l.decrypt_output.mean_us()},
    };
  }

 private:
  Layers layers_;
  Layers* trace_;
  std::uint64_t seed_;
  crypto::ChaChaDrbg rng_;
  crypto::Bytes memory_;
  crypto::Bytes memory_hash_;
  accel::MlpNetwork network_;
  puf::CrpDatabase store_{4};
  Device devices_[kDevices];
};

}  // namespace

PassResult run_device_onboarding(const Options& options, Mode mode) {
  const Clock::time_point start = Clock::now();
  DeviceOnboarding workload(options, mode == Mode::kTraced);
  PassResult out;
  out.setup_s = static_cast<double>(ns_between(start, Clock::now())) / 1e9;
  if (mode != Mode::kSetupOnly) {
    workload.run(scaled(kOpsPerSecond, options, kSegmentOps), out);
  }
  return out;
}

}  // namespace perfbench
