// Fleet provisioning: manufacture a wafer of PUF devices, screen their
// population quality, apply the §II-B margin filter, and provision each
// device for HSC-IoT authentication.
//
//   $ ./fleet_provisioning
//
// This is the manufacturer-side workflow the paper implies: per-wafer
// statistics decide whether the process corner is usable; per-device
// enrollment produces the CRP and helper data shipped with each unit.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/key_manager.hpp"
#include "core/mutual_auth.hpp"
#include "core/session_driver.hpp"
#include "crypto/sha256.hpp"
#include "filtering/filter.hpp"
#include "metrics/population.hpp"
#include "puf/photonic_puf.hpp"

using namespace neuropuls;

int main() {
  std::printf("== Fleet provisioning (one wafer, 12 dies) ==\n\n");
  auto config = puf::small_photonic_config();
  config.challenge_bits = 32;
  constexpr std::uint64_t kWafer = 77'001;
  constexpr std::size_t kDies = 12;

  // -- wafer-level screening ---------------------------------------------------
  crypto::ChaChaDrbg rng(crypto::bytes_of("screening"));
  const puf::Challenge probe = rng.generate(4);
  std::vector<crypto::Bytes> responses;
  std::vector<std::vector<crypto::Bytes>> rereads;
  std::vector<std::unique_ptr<puf::PhotonicPuf>> dies;
  for (std::size_t d = 0; d < kDies; ++d) {
    dies.push_back(std::make_unique<puf::PhotonicPuf>(config, kWafer, d));
    responses.push_back(dies.back()->evaluate_noiseless(probe));
    std::vector<crypto::Bytes> reads;
    for (int r = 0; r < 5; ++r) reads.push_back(dies.back()->evaluate(probe));
    rereads.push_back(std::move(reads));
  }
  const auto report = metrics::population_report(responses, rereads);
  std::printf("wafer statistics:\n");
  std::printf("  uniformity     %.3f   (target ~0.5)\n", report.uniformity_mean);
  std::printf("  uniqueness     %.3f   (target ~0.5)\n", report.uniqueness);
  std::printf("  reliability    %.3f   (target ~1.0)\n", report.reliability_mean);
  std::printf("  aliasing H     %.3f   (target ~1.0)\n",
              report.aliasing_entropy_mean);
  std::printf("  min-entropy    %.3f bit/bit\n\n", report.min_entropy);
  const bool wafer_ok = report.uniqueness > 0.4 && report.reliability_mean > 0.9;
  std::printf("wafer %s\n\n", wafer_ok ? "ACCEPTED" : "REJECTED");
  if (!wafer_ok) return 1;

  // -- §II-B margin filtering on one die ---------------------------------------
  const auto pop =
      filtering::measure_photonic_population(config, 6, probe, 7, kWafer);
  double max_margin = 0.0;
  for (const auto& crp : pop.crps) {
    for (double m : crp.margins) max_margin = std::max(max_margin, std::fabs(m));
  }
  std::vector<double> thresholds;
  for (int i = 0; i <= 8; ++i) thresholds.push_back(max_margin * i / 24.0);
  const auto sweep = filtering::sweep_lower_threshold(pop, thresholds);
  const auto window = filtering::tradeoff_window(sweep, 0.995, 0.75);
  if (window.empty()) {
    std::printf("margin filter: no trade-off window at this corner\n");
  } else {
    const auto& pick = sweep[window.front()];
    std::printf("margin filter: |dI| >= %.2f uA keeps %.0f%% of CRPs at "
                "reliability %.4f\n\n",
                pick.threshold * 1e6, pick.retained_fraction * 100.0,
                pick.reliability);
  }

  // -- per-device provisioning ---------------------------------------------------
  std::printf("provisioning %zu devices:\n", kDies);
  std::size_t provisioned_ok = 0;
  for (std::size_t d = 0; d < kDies; ++d) {
    crypto::ChaChaDrbg device_rng(
        crypto::concat({crypto::bytes_of("provision"),
                        crypto::Bytes{static_cast<std::uint8_t>(d)}}));
    // Key enrollment (helper data ships with the device).
    core::KeyManager keys(*dies[d]);
    const auto record = keys.enroll(device_rng);
    const auto derived = keys.derive(record);
    // First authentication CRP (stored at the verifier).
    const auto provisioned = core::provision(*dies[d], device_rng);
    const crypto::Bytes firmware = crypto::bytes_of("fw-1.0");
    core::AuthDevice device(*dies[d], provisioned.device_crp, firmware);
    core::AuthVerifier verifier(provisioned.verifier_secret,
                                crypto::Sha256::hash(firmware),
                                dies[d]->challenge_bytes());
    net::DuplexChannel channel;
    const bool auth_ok =
        core::run_auth_session(verifier, device, channel, 1, d + 1);
    const bool ok = derived.has_value() && auth_ok;
    provisioned_ok += ok;
    std::printf("  die %2zu: key %s, first auth %s\n", d,
                derived ? "ok" : "FAILED", auth_ok ? "ok" : "FAILED");
  }
  std::printf("\n%zu/%zu devices provisioned\n", provisioned_ok, kDies);
  return provisioned_ok == kDies ? 0 : 1;
}
