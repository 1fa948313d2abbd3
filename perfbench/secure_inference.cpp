// secure_inference: one edge device in steady state, one client thread.
//
// Set-up keys everything once: the device derives its Table I key from
// its PUF through the fuzzy extractor, an EKE handshake (MODP-2048) over
// an enrolled CRP keys a SecureChannel pair, and the network is loaded
// into a SecureAccelerator running DigitalMvm. Each op is the chain
//
//   client encrypt_input -> channel seal -> device open
//     -> execute_network -> device seal -> client open -> decrypt_output
//
// and its output must be bit-identical to a DigitalMvm reference
// computed in set-up. The engine, admission, the CRP store and SHA auth
// are not on this path.
#include <cstring>
#include <memory>
#include <stdexcept>

#include "accel/accelerator.hpp"
#include "accel/network.hpp"
#include "accel/secure_api.hpp"
#include "core/aka_eke.hpp"
#include "core/key_manager.hpp"
#include "core/secure_channel.hpp"
#include "crypto/dh.hpp"
#include "crypto/prng.hpp"
#include "fleet/synthetic_puf.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

using namespace neuropuls;

constexpr std::size_t kWidth = 16;
constexpr std::size_t kInputs = 64;   // distinct inputs, cycled
constexpr std::size_t kWarmup = 64;   // untimed ops inside set-up
constexpr double kOpsPerSecond = 1500.0;
constexpr std::size_t kSegmentOps = 100;

struct Layers {
  SpanStat encrypt_input, execute_network, decrypt_output, plain_infer;
  SpanStat seal, open;
  std::uint64_t record_bytes = 0;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class SecureInference {
 public:
  SecureInference(const Options& options, bool traced)
      : layers_(), trace_(traced ? &layers_ : nullptr) {
    const std::uint64_t seed = mix(options.seed ^ 0x5EC0BE7CULL);
    crypto::ChaChaDrbg rng(crypto::bytes_of("perfbench-secure-inference-" +
                                            std::to_string(seed)));
    fleet::SyntheticPuf puf({}, seed);

    // Boot: the Table I key comes from the PUF via the fuzzy extractor.
    core::KeyManager key_manager(puf);
    const core::DeviceKeyRecord record = key_manager.enroll(rng);
    auto keys = key_manager.derive_robust(record);
    if (!keys) throw std::runtime_error("secure_inference: key derivation");
    device_key_ = keys->encryption_key.clone();

    // Keying: EKE over an enrolled CRP, then the record channel pair.
    const puf::Challenge challenge = rng.generate(puf.challenge_bytes());
    const puf::Response password = puf::enroll_majority(puf, challenge, 5);
    const auto& group = crypto::DhGroup::modp2048();
    core::EkeParty verifier(password, group, crypto::ChaChaDrbg(rng.generate(32)));
    core::EkeParty device(password, group, crypto::ChaChaDrbg(rng.generate(32)));
    const auto hello = device.respond(verifier.initiate(1));
    const auto confirm = hello ? verifier.confirm(*hello) : std::nullopt;
    if (!confirm || !device.finalize(*confirm) ||
        !common::ct_equal(verifier.session_key(), device.session_key())) {
      throw std::runtime_error("secure_inference: EKE keys differ");
    }
    client_channel_ = std::make_unique<core::SecureChannel>(
        verifier.session_key().clone(), true);
    device_channel_ = std::make_unique<core::SecureChannel>(
        device.session_key().clone(), false);

    // The network, loaded ciphered, and its plaintext reference outputs.
    const accel::MlpNetwork network =
        accel::make_random_network({kWidth, kWidth, kWidth}, seed);
    accelerator_ = std::make_unique<accel::SecureAccelerator>(
        std::make_unique<accel::DigitalMvm>(), device_key_.clone());
    accelerator_->load_network(accel::SecureAccelerator::encrypt_network(
        network, device_key_.reveal(), next_nonce_++));
    accel::Accelerator reference(std::make_unique<accel::DigitalMvm>());
    reference.load(network);
    rng::Xoshiro256 values(seed);
    for (std::size_t i = 0; i < kInputs; ++i) {
      std::vector<double> input(kWidth);
      for (double& v : input) v = values.uniform() * 2.0 - 1.0;
      const Span span(trace_ ? &layers_.plain_infer : nullptr);
      expected_.push_back(reference.infer(input));
      inputs_.push_back(std::move(input));
    }

    PassResult warm;
    for (std::size_t i = 0; i < kWarmup; ++i) one_op(i, warm);
    if (warm.failed != 0 || warm.violations != 0) {
      throw std::runtime_error("secure_inference: warm-up op failed");
    }
    // Warm-up spans are not part of the traced pass.
    const SpanStat plain_infer = layers_.plain_infer;
    layers_ = Layers{};
    layers_.plain_infer = plain_infer;
  }

  void one_op(std::size_t i, PassResult& out) {
    const std::size_t k = i % kInputs;
    const Clock::time_point start = Clock::now();
    ++out.attempted;
    crypto::Bytes ciphered_input;
    {
      const Span span(trace_ ? &layers_.encrypt_input : nullptr);
      ciphered_input = accel::SecureAccelerator::encrypt_input(
          inputs_[k], device_key_.reveal(), next_nonce_++);
    }
    crypto::Bytes up;
    {
      const Span span(trace_ ? &layers_.seal : nullptr);
      up = client_channel_->seal(ciphered_input);
    }
    std::optional<crypto::Bytes> at_device;
    {
      const Span span(trace_ ? &layers_.open : nullptr);
      at_device = device_channel_->open(up);
    }
    if (!at_device) {
      ++out.failed, ++out.violations;
      return;
    }
    crypto::Bytes ciphered_output;
    {
      const Span span(trace_ ? &layers_.execute_network : nullptr);
      ciphered_output = accelerator_->execute_network(*at_device);
    }
    crypto::Bytes down;
    {
      const Span span(trace_ ? &layers_.seal : nullptr);
      down = device_channel_->seal(ciphered_output);
    }
    std::optional<crypto::Bytes> at_client;
    {
      const Span span(trace_ ? &layers_.open : nullptr);
      at_client = client_channel_->open(down);
    }
    if (!at_client) {
      ++out.failed, ++out.violations;
      return;
    }
    std::vector<double> output;
    {
      const Span span(trace_ ? &layers_.decrypt_output : nullptr);
      output = accel::SecureAccelerator::decrypt_output(*at_client,
                                                        device_key_.reveal());
    }
    out.latency_us.push_back(
        static_cast<double>(ns_between(start, Clock::now())) / 1e3);
    layers_.record_bytes += up.size() + down.size();
    if (!same_bits(output, expected_[k]) || client_channel_->poisoned() ||
        device_channel_->poisoned()) {
      ++out.failed, ++out.violations;
    }
  }

  void run(std::size_t ops, PassResult& out) {
    out.latency_us.reserve(ops);
    Clock::time_point segment = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      one_op(i, out);
      if ((i + 1) % kSegmentOps == 0) end_segment(out, segment);
    }
    if (trace_ == nullptr) return;
    const double n = static_cast<double>(out.attempted);
    out.layers = {
        {"accel.encrypt_input_us", layers_.encrypt_input.mean_us()},
        {"accel.execute_network_us", layers_.execute_network.mean_us()},
        {"accel.decrypt_output_us", layers_.decrypt_output.mean_us()},
        {"accel.plain_infer_us", layers_.plain_infer.mean_us()},
        {"core.channel.seal_us", layers_.seal.mean_us()},
        {"core.channel.open_us", layers_.open.mean_us()},
        {"core.channel.record_bytes",
         ratio(static_cast<double>(layers_.record_bytes), n)},
    };
  }

 private:
  Layers layers_;
  Layers* trace_;
  common::SecretBytes device_key_;
  std::uint64_t next_nonce_ = 1;
  std::unique_ptr<core::SecureChannel> client_channel_;
  std::unique_ptr<core::SecureChannel> device_channel_;
  std::unique_ptr<accel::SecureAccelerator> accelerator_;
  std::vector<std::vector<double>> inputs_;
  std::vector<std::vector<double>> expected_;
};

}  // namespace

PassResult run_secure_inference(const Options& options, Mode mode) {
  const Clock::time_point start = Clock::now();
  SecureInference workload(options, mode == Mode::kTraced);
  PassResult out;
  out.setup_s = static_cast<double>(ns_between(start, Clock::now())) / 1e9;
  if (mode != Mode::kSetupOnly) {
    workload.run(scaled(kOpsPerSecond, options, kSegmentOps), out);
  }
  return out;
}

}  // namespace perfbench
