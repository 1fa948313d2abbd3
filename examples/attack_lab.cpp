// Attack lab: run the §IV attack suite against electronic and photonic
// targets and print a security scorecard.
//
//   $ ./attack_lab
//
// Demonstrates the attacker-facing API: ML modelling, power analysis,
// protocol manipulation (replay / tamper / desync), and the guessing
// economics of the EKE-protected CRP.
#include <cstdio>
#include <memory>

#include "attacks/brute_force.hpp"
#include "attacks/ml_attack.hpp"
#include "attacks/side_channel.hpp"
#include "core/mutual_auth.hpp"
#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"
#include "puf/arbiter_puf.hpp"
#include "puf/composite.hpp"
#include "puf/photonic_puf.hpp"

using namespace neuropuls;

int main() {
  std::printf("== Attack lab ==\n\n");

  // -- 1. ML modelling ------------------------------------------------------
  std::printf("[1] logistic-regression modelling, 3000 CRPs:\n");
  puf::ArbiterPuf arbiter(puf::ArbiterPufConfig{}, 5);
  puf::PhotonicPuf photonic(puf::small_photonic_config(), 5, 0);
  attacks::AttackConfig ml_config;
  ml_config.training_crps = 3000;
  ml_config.test_crps = 400;
  const double acc_arbiter =
      attacks::model_attack(arbiter,
                            attacks::parity_feature_map(arbiter.stages()),
                            ml_config)
          .test_accuracy;
  const double acc_photonic = attacks::mean_attack_accuracy(
      photonic, attacks::raw_feature_map(), ml_config, 4);
  std::printf("    arbiter PUF : %.1f%%  -> %s\n", acc_arbiter * 100.0,
              acc_arbiter > 0.9 ? "BROKEN" : "resists");
  std::printf("    photonic PUF: %.1f%%  -> %s\n\n", acc_photonic * 100.0,
              acc_photonic > 0.9 ? "BROKEN" : "resists");

  // -- 2. power analysis ------------------------------------------------------
  std::printf("[2] power analysis, 1000 traces:\n");
  const auto electronic = attacks::power_analysis_attack(
      arbiter, puf::Challenge(8, 0x3C), 1000, attacks::electronic_leakage(), 1);
  const auto photonic_sc = attacks::power_analysis_attack(
      photonic, puf::Challenge(2, 0x3C), 1000, attacks::photonic_leakage(), 1);
  std::printf("    electronic leakage: %.1f%% bits recovered -> %s\n",
              electronic.bit_recovery_accuracy * 100.0,
              electronic.bit_recovery_accuracy > 0.9 ? "BROKEN" : "resists");
  std::printf("    photonic leakage  : %.1f%% bits recovered -> %s\n\n",
              photonic_sc.bit_recovery_accuracy * 100.0,
              photonic_sc.bit_recovery_accuracy > 0.9 ? "BROKEN" : "resists");

  // -- 3. protocol attacks ------------------------------------------------------
  std::printf("[3] protocol manipulation on HSC-IoT:\n");
  crypto::ChaChaDrbg rng(crypto::bytes_of("lab"));
  const auto provisioned = core::provision(photonic, rng);
  const crypto::Bytes firmware = crypto::bytes_of("fw");
  core::AuthDevice device(photonic, provisioned.device_crp, firmware);
  core::AuthVerifier verifier(provisioned.verifier_secret,
                              crypto::Sha256::hash(firmware),
                              photonic.challenge_bytes());
  net::DuplexChannel channel;

  // Record a legitimate session, then replay it.
  net::Message recorded{};
  channel.set_adversary([&](net::Direction d, const net::Message& m) {
    if (d == net::Direction::kBtoA) recorded = m;
    return net::Verdict::pass();
  });
  core::run_auth_session(verifier, device, channel, 1, 100);
  verifier.start(2, 200);
  const bool replay_rejected =
      verifier.process_response(recorded).status != core::AuthStatus::kOk;
  std::printf("    replay of recorded response: %s\n",
              replay_rejected ? "rejected" : "ACCEPTED (bug!)");

  // Tamper with the device's response in flight.
  channel.set_adversary([](net::Direction d, const net::Message& m) {
    if (d == net::Direction::kBtoA &&
        m.type == net::MessageType::kAuthResponse) {
      net::Message forged = m;
      forged.payload[0] ^= 0x01;
      return net::Verdict::replace(forged);
    }
    return net::Verdict::pass();
  });
  const bool tamper_rejected =
      !core::run_auth_session(verifier, device, channel, 3, 300);
  std::printf("    in-flight tampering        : %s\n",
              tamper_rejected ? "rejected" : "ACCEPTED (bug!)");

  // Desync (drop the confirm), then recover.
  channel.set_adversary([](net::Direction d, const net::Message& m) {
    return (d == net::Direction::kAtoB &&
            m.type == net::MessageType::kAuthConfirm)
               ? net::Verdict::drop()
               : net::Verdict::pass();
  });
  core::run_auth_session(verifier, device, channel, 4, 400);
  channel.set_adversary(nullptr);
  const bool recovered =
      core::run_auth_session(verifier, device, channel, 5, 500);
  std::printf("    desync then recovery       : %s\n\n",
              recovered ? "recovered" : "LOCKED OUT (bug!)");

  // -- 4. guessing economics -----------------------------------------------------
  std::printf("[4] CRP guessing economics (%zu-byte response):\n",
              photonic.response_bytes());
  const double entropy_bits = 0.6 * 8.0 * static_cast<double>(photonic.response_bytes());
  std::printf("    effective min-entropy ~%.0f bits -> expected guesses %.1e\n",
              entropy_bits, attacks::expected_guesses(entropy_bits));
  std::printf("    EKE removes the offline channel: attacker rate falls by %.0e\n",
              attacks::eke_rate_reduction(1e9, 1.0));

  const bool all_good = acc_photonic < 0.9 && replay_rejected &&
                        tamper_rejected && recovered;
  std::printf("\nscorecard: %s\n", all_good ? "all defenses hold" : "GAPS FOUND");
  return all_good ? 0 : 1;
}
