#include "sim/system.hpp"

#include <stdexcept>

#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"

namespace neuropuls::sim {

namespace {

crypto::Bytes make_device_memory(std::size_t bytes) {
  crypto::ChaChaDrbg rng(crypto::bytes_of("np-sim-firmware"));
  return rng.generate(bytes);
}

}  // namespace

const PhaseReport* ScenarioReport::phase(const std::string& name) const {
  for (const auto& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

SecureSystem::SecureSystem(SystemConfig config)
    : config_(config),
      cpu_(scheduler_, stats_, config.cpu),
      memory_(scheduler_, stats_, config.memory),
      photonic_puf_(config.puf, config.wafer_seed, config.device_index),
      verifier_model_(config.puf, config.wafer_seed, config.device_index),
      sram_puf_(puf::SramPufConfig{}, rng::derive_seed(config.wafer_seed,
                                                       config.device_index)),
      puf_peripheral_(scheduler_, stats_, photonic_puf_,
                      photonic_puf_.interrogation_time_s() * 1e9,
                      config.mmio),
      key_manager_(sram_puf_),
      device_memory_(make_device_memory(config.device_memory_bytes)),
      rng_(crypto::bytes_of("np-sim-rng")) {
  if (config_.device_memory_bytes == 0) {
    throw std::invalid_argument("SecureSystem: zero device memory");
  }
}

PhaseReport SecureSystem::finish_phase(const std::string& name, double t0,
                                       double e0, double m0) {
  PhaseReport report;
  report.name = name;
  report.time_ns = scheduler_.now_ns() - t0;
  report.cpu_energy_nj = cpu_.energy_nj() - e0;
  report.memory_energy_nj = memory_.energy_nj() - m0;
  stats_.add("phase." + name + ".time_ns", report.time_ns);
  return report;
}

PhaseReport SecureSystem::boot_keys() {
  const double t0 = scheduler_.now_ns();
  const double e0 = cpu_.energy_nj();
  const double m0 = memory_.energy_nj();

  // Enrollment is a manufacturing-time step; at boot we reproduce. For
  // the simulation we enroll on first boot and derive afterwards.
  const auto record = key_manager_.enroll(rng_);

  // SRAM PUF power-up read: one pass over the array.
  cpu_.busy_ns(2000.0);
  memory_.transfer(2048 / 8);

  // Fuzzy-extractor decode: majority vote (cheap) + BCH syndrome/BM/Chien
  // — dominated by a few thousand GF ops.
  cpu_.execute_ops(60'000);
  // Key derivation: three HKDF expansions.
  cpu_.hmac_sha256(3 * 64);

  auto keys = key_manager_.derive(record);
  if (!keys) {
    throw std::runtime_error("SecureSystem: key derivation failed at boot");
  }
  device_key_ = std::move(keys->encryption_key);

  secure_accel_ = std::make_unique<accel::SecureAccelerator>(
      std::make_unique<accel::PhotonicMvm>(accel::PhotonicMvmConfig{},
                                           rng::derive_seed(config_.wafer_seed,
                                                            77)),
      device_key_.clone());
  accel_peripheral_ = std::make_unique<AcceleratorPeripheral>(
      scheduler_, stats_, *secure_accel_, config_.accel_mac_time_ps,
      config_.mmio);

  return finish_phase("boot_keys", t0, e0, m0);
}

PhaseReport SecureSystem::authenticate() {
  const double t0 = scheduler_.now_ns();
  const double e0 = cpu_.energy_nj();
  const double m0 = memory_.energy_nj();

  // Provision (manufacturing-time, not charged to the session).
  const auto provisioned = core::provision(photonic_puf_, rng_);
  core::AuthDevice device(photonic_puf_, provisioned.device_crp,
                          device_memory_);
  core::AuthVerifier verifier(provisioned.verifier_secret,
                              crypto::Sha256::hash(device_memory_),
                              photonic_puf_.challenge_bytes());

  // Device-side cost of one session: DRBG for c_{i+1}, one PUF
  // interrogation, memory hash, the response HMAC and the confirm check.
  cpu_.drbg(photonic_puf_.challenge_bytes());
  puf_peripheral_.evaluate(puf::Challenge(photonic_puf_.challenge_bytes(), 0),
                           cpu_);
  cpu_.hash_sha256(device_memory_.size());
  memory_.transfer(device_memory_.size());
  cpu_.hmac_sha256(photonic_puf_.response_bytes() + 48);
  cpu_.hmac_sha256(photonic_puf_.challenge_bytes());

  net::DuplexChannel channel;
  if (!core::run_auth_session(verifier, device, channel, 1, 0x42)) {
    throw std::runtime_error("authenticate: session failed");
  }
  stats_.count("auth.sessions");
  return finish_phase("authenticate", t0, e0, m0);
}

PhaseReport SecureSystem::attest() {
  const double t0 = scheduler_.now_ns();
  const double e0 = cpu_.energy_nj();
  const double m0 = memory_.energy_nj();

  core::AttestationConfig att_config;
  att_config.chunk_size = config_.attestation_chunk;
  core::AttestDevice device(photonic_puf_, device_memory_, att_config);
  core::AttestVerifier verifier(verifier_model_, device_memory_, att_config,
                                core::AttestationCostModel{});

  const auto request = verifier.start(1, 555, rng_);
  // Device cost: hash every chunk (+96 bytes of chained state each) and
  // stream memory once; PUF interrogations overlap the hashing.
  const std::size_t chunks =
      (device_memory_.size() + att_config.chunk_size - 1) /
      att_config.chunk_size;
  memory_.transfer(device_memory_.size());
  cpu_.hash_sha256(device_memory_.size() + chunks * 96);
  cpu_.execute_ops(chunks * 50);

  const auto report = device.handle_request(request);
  if (!report) throw std::runtime_error("attest: device failed");
  const auto outcome =
      verifier.check(*report, verifier.honest_time_ns() *
                                  device.last_time_factor());
  if (!outcome.accepted) throw std::runtime_error("attest: rejected");
  stats_.count("attest.sessions");
  return finish_phase("attest", t0, e0, m0);
}

PhaseReport SecureSystem::establish_session_key() {
  const double t0 = scheduler_.now_ns();
  const double e0 = cpu_.energy_nj();
  const double m0 = memory_.energy_nj();

  // Device-side cost: ephemeral keygen (one modexp) + shared secret (one
  // modexp) + password encryption and two confirmation MACs.
  cpu_.modexp_2048();
  cpu_.modexp_2048();
  cpu_.aes(2 * 256);       // EKE-encrypt/decrypt the public values
  cpu_.hmac_sha256(2 * (16 + 256));
  cpu_.drbg(32 + 16);

  // Functional handshake (CRP response as the password).
  crypto::Bytes secret =  // ctlint:secret CRP response used as EKE password
      photonic_puf_.evaluate_noiseless(puf::Challenge(
          photonic_puf_.challenge_bytes(), 0x42));
  auto outcome = core::run_eke_handshake(
      secret, secret, crypto::DhGroup::modp2048(), 1, config_.wafer_seed);
  crypto::secure_wipe(secret);
  if (!outcome.keys_match) {
    throw std::runtime_error("establish_session_key: handshake failed");
  }
  session_key_ = std::move(outcome.responder_key);
  stats_.count("eke.handshakes");
  return finish_phase("session_key", t0, e0, m0);
}

PhaseReport SecureSystem::load_network(const accel::MlpNetwork& network) {
  if (!secure_accel_) {
    throw std::logic_error("SecureSystem: call boot_keys() first");
  }
  const double t0 = scheduler_.now_ns();
  const double e0 = cpu_.energy_nj();
  const double m0 = memory_.energy_nj();
  const auto ciphered = accel::SecureAccelerator::encrypt_network(
      network, device_key_.reveal(), 1);
  accel_peripheral_->load_network(ciphered, cpu_, memory_);
  return finish_phase("load_network", t0, e0, m0);
}

PhaseReport SecureSystem::infer(const std::vector<double>& input,
                                std::size_t repetitions) {
  if (!secure_accel_) {
    throw std::logic_error("SecureSystem: call boot_keys() first");
  }
  const double t0 = scheduler_.now_ns();
  const double e0 = cpu_.energy_nj();
  const double m0 = memory_.energy_nj();
  for (std::size_t i = 0; i < repetitions; ++i) {
    const auto ciphered_input = accel::SecureAccelerator::encrypt_input(
        input, device_key_.reveal(), 1000 + i);
    const auto ciphered_output =
        accel_peripheral_->execute(ciphered_input, cpu_, memory_);
    (void)ciphered_output;
  }
  return finish_phase("infer", t0, e0, m0);
}

ScenarioReport SecureSystem::run_secure_pipeline(
    const accel::MlpNetwork& network, const std::vector<double>& input,
    std::size_t inferences, bool with_eke) {
  ScenarioReport report;
  const double t0 = scheduler_.now_ns();
  report.phases.push_back(boot_keys());
  report.phases.push_back(authenticate());
  if (with_eke) report.phases.push_back(establish_session_key());
  report.phases.push_back(attest());
  report.phases.push_back(load_network(network));
  report.phases.push_back(infer(input, inferences));
  report.total_time_ns = scheduler_.now_ns() - t0;
  for (const auto& phase : report.phases) {
    report.total_energy_nj += phase.cpu_energy_nj + phase.memory_energy_nj;
  }
  return report;
}

ScenarioReport SecureSystem::run_insecure_pipeline(
    const accel::MlpNetwork& network, const std::vector<double>& input,
    std::size_t inferences) {
  ScenarioReport report;
  const double t0 = scheduler_.now_ns();
  const double e0 = cpu_.energy_nj();
  const double m0 = memory_.energy_nj();

  // Plain accelerator: no keys, no auth, no crypto on the data path.
  accel::Accelerator plain(std::make_unique<accel::PhotonicMvm>(
      accel::PhotonicMvmConfig{}, rng::derive_seed(config_.wafer_seed, 78)));
  const auto blob = accel::serialize_network(network);
  cpu_.busy_ns(config_.mmio.dma_setup_ns);
  memory_.transfer(blob.size());
  plain.load(network);

  const std::uint64_t macs_before = plain.stats().mac_operations;
  for (std::size_t i = 0; i < inferences; ++i) {
    cpu_.busy_ns(config_.mmio.dma_setup_ns);
    memory_.transfer(input.size() * 8);
    (void)plain.infer(input);
    memory_.transfer(network.output_size() * 8);
  }
  const double compute_ps =
      config_.accel_mac_time_ps *
      static_cast<double>(plain.stats().mac_operations - macs_before);
  scheduler_.advance(static_cast<Picoseconds>(compute_ps + 0.5));

  PhaseReport phase;
  phase.name = "insecure_pipeline";
  phase.time_ns = scheduler_.now_ns() - t0;
  phase.cpu_energy_nj = cpu_.energy_nj() - e0;
  phase.memory_energy_nj = memory_.energy_nj() - m0;
  report.phases.push_back(phase);
  report.total_time_ns = phase.time_ns;
  report.total_energy_nj = phase.cpu_energy_nj + phase.memory_energy_nj;
  return report;
}

}  // namespace neuropuls::sim
