// Quickstart: manufacture a photonic PUF device, derive a stable key from
// it, and run one mutual-authentication session against a verifier.
//
//   $ ./quickstart
//
// This touches the three layers a new user needs: the PUF device model
// (src/puf), key generation (src/ecc via core::KeyManager), and one
// security service (src/core mutual authentication, Fig. 4).
#include <cstdio>

#include "core/key_manager.hpp"
#include "core/mutual_auth.hpp"
#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"
#include "puf/photonic_puf.hpp"

using namespace neuropuls;

int main() {
  std::printf("== NEUROPULS quickstart ==\n\n");

  // 1. "Manufacture" a device: wafer seed + die index fix its fingerprint.
  puf::PhotonicPufConfig config;  // 8-port scrambler, 64-bit challenges
  puf::PhotonicPuf device_puf(config, /*wafer_seed=*/2024, /*device_index=*/7);
  std::printf("device: %s, challenge %zu B, response %zu B\n",
              device_puf.name().c_str(), device_puf.challenge_bytes(),
              device_puf.response_bytes());
  std::printf("interrogation time: %.1f ns (response throughput %.1f Gb/s)\n\n",
              device_puf.interrogation_time_s() * 1e9,
              device_puf.response_throughput_bps() / 1e9);

  // 2. Enroll a device key with the fuzzy extractor; re-derive it from a
  //    fresh (noisy) PUF reading, as the device would at every boot.
  core::KeyManager keys(device_puf);
  crypto::ChaChaDrbg enrollment_rng(crypto::bytes_of("factory entropy"));
  const auto record = keys.enroll(enrollment_rng);
  const auto derived = keys.derive(record);
  if (!derived) {
    std::printf("key derivation failed (noise beyond code radius)\n");
    return 1;
  }
  std::printf("device encryption key: %s\n",
              crypto::to_hex(derived->encryption_key.reveal()).c_str());
  std::printf("stable across boots:   %s\n\n",
              common::ct_equal(keys.derive(record)->encryption_key,
                               derived->encryption_key)
                  ? "yes"
                  : "NO");

  // 3. One mutual-authentication session (Fig. 4).
  crypto::ChaChaDrbg provisioning_rng(crypto::bytes_of("provisioning"));
  const auto provisioned = core::provision(device_puf, provisioning_rng);
  const crypto::Bytes firmware = crypto::bytes_of("firmware v1.0");
  core::AuthDevice device(device_puf, provisioned.device_crp, firmware);
  core::AuthVerifier verifier(provisioned.verifier_secret,
                              crypto::Sha256::hash(firmware),
                              device_puf.challenge_bytes());
  net::DuplexChannel channel;
  const bool ok = core::run_auth_session(verifier, device, channel, 1, 0x42);
  std::printf("mutual authentication: %s (%zu messages on the wire)\n",
              ok ? "SUCCESS" : "FAILED", channel.transcript().size());
  std::printf("CRP rotated for next session: %s\n",
              common::ct_equal(device.current_response(),
                               verifier.current_secret())
                  ? "yes (device and verifier in lockstep)"
                  : "NO");
  return ok ? 0 : 1;
}
