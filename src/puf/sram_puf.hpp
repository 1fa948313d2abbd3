// SRAM power-up PUF — the ASIC-side weak PUF of Fig. 1.
//
// Each 6T cell has a fixed mismatch skew (device fingerprint, Gaussian
// across cells and devices); at power-up the cell resolves toward the sign
// of skew + thermal noise. Cells with |skew| >> noise always resolve the
// same way; near-metastable cells flip between power-ups — this is the
// standard physical model behind SRAM PUF reliability numbers, and it also
// reproduces the *temperature* sensitivity (noise grows as sqrt(T)).
//
// The paper binds the PIC to its driving ASIC through this primitive
// ("an ASIC (based on SRAM) to guarantee unique binding between the
// chips") — see `composite.hpp`.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/prng.hpp"
#include "puf/puf.hpp"

namespace neuropuls::puf {

struct SramPufConfig {
  std::size_t cells = 2048;       // response bits
  double skew_sigma = 1.0;        // process mismatch spread (a.u.)
  double noise_sigma = 0.08;      // power-up noise at reference temperature
  double temperature = 300.0;     // kelvin
  double reference_temperature = 300.0;
};

class SramPuf final : public Puf {
 public:
  /// `device_seed` fixes the per-cell skews; each evaluate() re-samples
  /// power-up noise.
  SramPuf(SramPufConfig config, std::uint64_t device_seed);

  std::size_t challenge_bytes() const override { return 0; }
  std::size_t response_bytes() const override { return config_.cells / 8; }

  Response evaluate(const Challenge& challenge) override;
  Response evaluate_noiseless(const Challenge& challenge) const override;
  std::string name() const override { return "sram-puf"; }

  /// Weak-PUF convenience: power-up read with the implicit challenge.
  Response read() { return evaluate({}); }

  /// Changes the operating temperature (affects noise amplitude).
  void set_temperature(double kelvin) noexcept;

  /// Ages the device by `hours` of operation (§V: "effects of aging").
  /// NBTI-style drift: each cell's skew takes a random walk whose
  /// magnitude grows ~sqrt(hours), so marginal cells flip preference and
  /// the distance to the time-zero enrollment grows. Cumulative.
  void age(double hours);

  /// Total accumulated stress time.
  double age_hours() const noexcept { return age_hours_; }

 private:
  double noise_sigma_at_temperature() const noexcept;

  SramPufConfig config_;
  std::vector<double> skews_;
  rng::Gaussian noise_;
  rng::Gaussian aging_;
  double age_hours_ = 0.0;
};

}  // namespace neuropuls::puf
