// Cross-module integration tests: the complete Fig. 1 service stack
// chained end to end, with each stage's output feeding the next —
// TRNG -> enrollment, weak PUF -> keys -> Table I, mutual auth -> CRP ->
// EKE -> secure channel -> encrypted inference, attestation gating.
#include <gtest/gtest.h>

#include <memory>

#include "accel/secure_api.hpp"
#include "core/aka_eke.hpp"
#include "core/attestation.hpp"
#include "core/key_manager.hpp"
#include "core/mutual_auth.hpp"
#include "core/secure_channel.hpp"
#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"
#include "puf/composite.hpp"
#include "puf/photonic_puf.hpp"
#include "puf/spectral_puf.hpp"
#include "puf/trng.hpp"

namespace neuropuls {
namespace {

TEST(EndToEnd, TrngSeedsEnrollmentKeysDriveTableOne) {
  // The device's own TRNG supplies the enrollment randomness; the derived
  // key drives the encrypted accelerator API.
  puf::PhotonicPuf device_puf(puf::small_photonic_config(), 500, 0);
  puf::PhotonicTrng trng(device_puf,
                         puf::Challenge(device_puf.challenge_bytes(), 0x77));
  crypto::ChaChaDrbg enrollment_rng(trng.conditioned_bytes(32));

  core::KeyManager keys(device_puf);
  const auto record = keys.enroll(enrollment_rng);
  const auto derived = keys.derive(record);
  ASSERT_TRUE(derived.has_value());

  accel::SecureAccelerator accelerator(std::make_unique<accel::DigitalMvm>(),
                                       derived->encryption_key.clone());
  const auto network = accel::make_random_network({4, 4}, 3);
  accelerator.load_network(accel::SecureAccelerator::encrypt_network(
      network, derived->encryption_key.reveal(), 1));
  const auto out = accel::SecureAccelerator::decrypt_output(
      accelerator.execute_network(accel::SecureAccelerator::encrypt_input(
          {1.0, 2.0, 3.0, 4.0}, derived->encryption_key.reveal(), 2)),
      derived->encryption_key.reveal());
  EXPECT_EQ(out.size(), 4u);
}

TEST(EndToEnd, SpectralWeakPufKeysDriveTableOne) {
  // Same flow, keyed by the *spectral* weak PUF (the other photonic
  // architecture) — the two PUFs are interchangeable at the KeyManager
  // interface.
  puf::SpectralPufConfig cfg;
  cfg.rings = 12;
  cfg.wavelength_channels = 1024;
  puf::SpectralMicroringPuf weak_puf(cfg, 500, 1);
  core::KeyManager keys(weak_puf);
  crypto::ChaChaDrbg rng(crypto::bytes_of("e2e-spectral"));
  const auto record = keys.enroll(rng);
  const auto derived = keys.derive(record);
  ASSERT_TRUE(derived.has_value());

  accel::SecureAccelerator accelerator(
      std::make_unique<accel::PhotonicMvm>(accel::PhotonicMvmConfig{}, 9),
      derived->encryption_key.clone());
  const auto network = accel::make_random_network({4, 2}, 5);
  accelerator.load_network(accel::SecureAccelerator::encrypt_network(
      network, derived->encryption_key.reveal(), 1));
  EXPECT_TRUE(accelerator.network_loaded());
}

TEST(EndToEnd, AuthRotatedCrpSeedsEkeAndSecureChannel) {
  // After a mutual-auth session both sides hold the fresh CRP r_{i+1};
  // it becomes the EKE password; the EKE session key opens the secure
  // channel; encrypted inference results flow over it.
  puf::PhotonicPuf device_puf(puf::small_photonic_config(), 501, 0);
  crypto::ChaChaDrbg rng(crypto::bytes_of("e2e-chain"));
  const auto provisioned = core::provision(device_puf, rng);
  const crypto::Bytes firmware = crypto::bytes_of("fw");
  core::AuthDevice device(device_puf, provisioned.device_crp, firmware);
  core::AuthVerifier verifier(provisioned.verifier_secret,
                              crypto::Sha256::hash(firmware),
                              device_puf.challenge_bytes());
  net::DuplexChannel channel;
  ASSERT_TRUE(core::run_auth_session(verifier, device, channel, 1, 0x11));
  ASSERT_TRUE(common::ct_equal(device.current_response(),
                               verifier.current_secret()));

  // EKE keyed by the rotated CRP (test-only unwrap of both copies).
  const auto unwrap = [](const common::SecretBytes& secret) {
    const auto view = secret.reveal();
    return crypto::Bytes(view.begin(), view.end());
  };
  auto handshake = core::run_eke_handshake(
      unwrap(verifier.current_secret()), unwrap(device.current_response()),
      crypto::DhGroup::modp1536(), 2, 99);
  ASSERT_TRUE(handshake.keys_match);

  // Secure channel carries a ciphered inference result.
  core::SecureChannel v_end(std::move(handshake.initiator_key), true);
  core::SecureChannel d_end(std::move(handshake.responder_key), false);

  const crypto::Bytes inference_key = crypto::bytes_of("accel key");
  accel::SecureAccelerator accelerator(
      std::make_unique<accel::DigitalMvm>(),
      common::SecretBytes::copy_of(inference_key));
  accelerator.load_network(accel::SecureAccelerator::encrypt_network(
      accel::make_random_network({2, 2}, 1), inference_key, 1));
  const auto ciphered_result = accelerator.execute_network(
      accel::SecureAccelerator::encrypt_input({0.5, -0.5}, inference_key, 2));

  const auto record = d_end.seal(ciphered_result);
  const auto received = v_end.open(record);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, ciphered_result);
}

TEST(EndToEnd, AttestationGatesNetworkLoad) {
  // Policy flow: the verifier only releases the (encrypted) network to a
  // device that passes attestation; a compromised device never gets it.
  const auto cfg = puf::small_photonic_config();
  puf::PhotonicPuf device_puf(cfg, 502, 0);
  puf::PhotonicPuf model(cfg, 502, 0);
  crypto::ChaChaDrbg rng(crypto::bytes_of("e2e-gate"));
  crypto::Bytes firmware = rng.generate(8192);

  core::AttestationConfig att_config;
  att_config.chunk_size = 512;
  core::AttestVerifier verifier(model, firmware, att_config,
                                core::AttestationCostModel{});

  auto attempt_load = [&](core::AttestDevice& device,
                          std::uint64_t session) -> bool {
    const auto request = verifier.start(session, 1000 + session, rng);
    const auto report = device.handle_request(request);
    if (!report) return false;
    const auto outcome = verifier.check(
        *report, verifier.honest_time_ns() * device.last_time_factor());
    return outcome.accepted;
  };

  core::AttestDevice honest(device_puf, firmware, att_config);
  EXPECT_TRUE(attempt_load(honest, 1));

  core::AttestDevice compromised(device_puf, firmware, att_config);
  compromised.corrupt_memory(100, 0x66);
  EXPECT_FALSE(attempt_load(compromised, 2));
}

TEST(EndToEnd, CompositeBindingGatesAttestation) {
  // §IV: the composite PIC+ASIC response "can be used to assess the
  // genuine character of the accelerator as a whole". Attestation is
  // where that check bites: the verifier's model is the *enrolled
  // assembly*; swap either chip and the chained pPUF responses (and thus
  // the digest) diverge, even though the firmware is pristine.
  auto make_composite = [](std::uint64_t pic_index, std::uint64_t asic_seed) {
    return puf::CompositePuf(
        std::make_unique<puf::PhotonicPuf>(puf::small_photonic_config(), 503,
                                           pic_index),
        std::make_unique<puf::SramPuf>(puf::SramPufConfig{}, asic_seed));
  };
  puf::CompositePuf enrolled_model = make_composite(0, 900);

  crypto::ChaChaDrbg rng(crypto::bytes_of("e2e-bind"));
  const crypto::Bytes firmware = rng.generate(4096);
  core::AttestationConfig att_config;
  att_config.chunk_size = 512;
  core::AttestVerifier verifier(enrolled_model, firmware, att_config,
                                core::AttestationCostModel{});

  auto attest = [&](puf::Puf& assembly, std::uint64_t session) {
    core::AttestDevice device(assembly, firmware, att_config);
    const auto request = verifier.start(session, 3000 + session, rng);
    const auto report = device.handle_request(request);
    const auto outcome =
        verifier.check(*report, verifier.honest_time_ns());
    return outcome.accepted;
  };

  puf::CompositePuf genuine = make_composite(0, 900);
  EXPECT_TRUE(attest(genuine, 1));

  puf::CompositePuf swapped_asic = make_composite(0, 901);
  EXPECT_FALSE(attest(swapped_asic, 2));

  puf::CompositePuf swapped_pic = make_composite(1, 900);
  EXPECT_FALSE(attest(swapped_pic, 3));
}

TEST(EndToEnd, ChallengeEncryptedStrongPufWorksInProtocols) {
  // The ref.-[30] hardened configuration (weak-PUF-keyed challenge
  // encryption around the photonic strong PUF) must remain protocol-
  // compatible: authentication works unchanged.
  puf::SramPuf weak(puf::SramPufConfig{}, 33);
  const auto weak_key = weak.evaluate_noiseless({});
  puf::EncryptedChallengePuf hardened(
      std::make_unique<puf::PhotonicPuf>(puf::small_photonic_config(), 504, 0),
      weak_key);

  crypto::ChaChaDrbg rng(crypto::bytes_of("e2e-enc"));
  const auto provisioned = core::provision(hardened, rng);
  const crypto::Bytes firmware = crypto::bytes_of("fw");
  core::AuthDevice device(hardened, provisioned.device_crp, firmware);
  core::AuthVerifier verifier(provisioned.verifier_secret,
                              crypto::Sha256::hash(firmware),
                              hardened.challenge_bytes());
  net::DuplexChannel channel;
  for (std::uint64_t session = 1; session <= 3; ++session) {
    EXPECT_TRUE(core::run_auth_session(verifier, device, channel, session,
                                       session * 5));
  }
}

}  // namespace
}  // namespace neuropuls
