// Secure inference end to end — the Fig. 1 scenario.
//
//   $ ./secure_inference
//
// A model owner wants to run their proprietary network on a remote
// NEUROPULS accelerator without ever exposing the weights or the data:
//   1. the device boots and re-derives its keys from the weak PUF;
//   2. the verifier mutually authenticates the device (Fig. 4);
//   3. the verifier attests the device's firmware (§III-B);
//   4. the network and inputs cross the boundary encrypted (Table I);
//   5. a tampered ciphertext and a compromised device are shown failing.
#include <cstdio>

#include "accel/secure_api.hpp"
#include "core/attestation.hpp"
#include "core/key_manager.hpp"
#include "core/mutual_auth.hpp"
#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"
#include "puf/photonic_puf.hpp"

using namespace neuropuls;

int main() {
  std::printf("== Secure inference lifecycle ==\n\n");
  const auto puf_config = puf::small_photonic_config();
  puf::PhotonicPuf device_puf(puf_config, 99, 0);
  puf::PhotonicPuf verifier_model(puf_config, 99, 0);  // §III-B PUF model

  // -- 1. boot: device keys from the PUF ------------------------------------
  core::KeyManager key_manager(device_puf);
  crypto::ChaChaDrbg rng(crypto::bytes_of("lifecycle"));
  const auto record = key_manager.enroll(rng);
  const auto keys = key_manager.derive(record);
  if (!keys) {
    std::printf("[boot] key derivation failed\n");
    return 1;
  }
  std::printf("[boot] device keys derived from PUF\n");

  // -- 2. mutual authentication ----------------------------------------------
  const auto provisioned = core::provision(device_puf, rng);
  crypto::Bytes firmware = rng.generate(16 * 1024);
  core::AuthDevice auth_device(device_puf, provisioned.device_crp, firmware);
  core::AuthVerifier auth_verifier(provisioned.verifier_secret,
                                   crypto::Sha256::hash(firmware),
                                   device_puf.challenge_bytes());
  net::DuplexChannel channel;
  if (!core::run_auth_session(auth_verifier, auth_device, channel, 1, 7)) {
    std::printf("[auth] FAILED\n");
    return 1;
  }
  std::printf("[auth] device and verifier mutually authenticated\n");

  // -- 3. attestation ----------------------------------------------------------
  core::AttestationConfig att_config;
  att_config.chunk_size = 1024;
  core::AttestDevice att_device(device_puf, firmware, att_config);
  core::AttestVerifier att_verifier(verifier_model, firmware, att_config,
                                    core::AttestationCostModel{});
  const auto att_request = att_verifier.start(2, /*timestamp=*/1111, rng);
  const auto att_report = att_device.handle_request(att_request);
  const auto att_outcome = att_verifier.check(
      *att_report, att_verifier.honest_time_ns());
  std::printf("[attest] digest %s, timing %s -> %s\n",
              att_outcome.digest_ok ? "ok" : "BAD",
              att_outcome.time_ok ? "ok" : "OVER",
              att_outcome.accepted ? "ACCEPTED" : "REJECTED");
  if (!att_outcome.accepted) return 1;

  // -- 4. encrypted load + inference (Table I) --------------------------------
  accel::SecureAccelerator accelerator(
      std::make_unique<accel::PhotonicMvm>(accel::PhotonicMvmConfig{}, 55),
      keys->encryption_key.clone());
  const auto network = accel::make_random_network({8, 16, 4}, 21);
  accelerator.load_network(accel::SecureAccelerator::encrypt_network(
      network, keys->encryption_key.reveal(), 1));
  std::printf("[load_network] %zu parameters loaded (ciphertext only)\n",
              network.parameter_count());

  const std::vector<double> input = {0.3, -0.1, 0.7, 0.2, -0.5, 0.9, 0.0, 0.4};
  const auto ciphered_output = accelerator.execute_network(
      accel::SecureAccelerator::encrypt_input(input,
                                              keys->encryption_key.reveal(),
                                              2));
  const auto output = accel::SecureAccelerator::decrypt_output(
      ciphered_output, keys->encryption_key.reveal());
  std::printf("[execute_network] output:");
  for (double v : output) std::printf(" %.4f", v);
  std::printf("\n");

  // -- 5. failure demonstrations ----------------------------------------------
  auto tampered = accel::SecureAccelerator::encrypt_input(
      input, keys->encryption_key.reveal(), 3);
  tampered[tampered.size() / 2] ^= 0x01;
  try {
    accelerator.execute_network(tampered);
    std::printf("[tamper] NOT DETECTED (bug!)\n");
    return 1;
  } catch (const std::runtime_error&) {
    std::printf("[tamper] tampered input rejected before decryption output\n");
  }

  att_device.corrupt_memory(1234, 0xEE);
  const auto bad_request = att_verifier.start(3, 2222, rng);
  const auto bad_report = att_device.handle_request(bad_request);
  const auto bad_outcome =
      att_verifier.check(*bad_report, att_verifier.honest_time_ns());
  std::printf("[compromise] corrupted firmware attestation: %s\n",
              bad_outcome.accepted ? "ACCEPTED (bug!)" : "rejected");
  return bad_outcome.accepted ? 1 : 0;
}
