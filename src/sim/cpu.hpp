// Transaction-level CPU and memory models for the §V platform simulator.
//
// The CPU executes abstract operation batches with a per-class cost table
// (cycles) and an energy-per-cycle figure; the memory model charges
// latency + bandwidth per transfer. Defaults approximate a small in-order
// RISC-V core at 500 MHz with software crypto — the class of edge device
// the paper targets — and everything is configurable for sweeps.
#pragma once

#include <cstdint>
#include <string>

#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace neuropuls::sim {

struct CpuCosts {
  double frequency_hz = 500e6;
  double energy_pj_per_cycle = 12.0;
  // Cycle costs per unit of work.
  double cycles_per_alu_op = 1.0;
  double cycles_per_sha256_byte = 14.0;   // software SHA-256
  double cycles_per_aes_byte = 28.0;      // table-based software AES
  double cycles_per_chacha_byte = 5.0;
  double cycles_per_hmac_fixed = 4000.0;  // two extra hash blocks + setup
  double cycles_modexp_2048 = 180e6;      // the EKE heavyweight
  double cycles_per_drbg_byte = 6.0;
};

class CpuModel {
 public:
  CpuModel(EventScheduler& scheduler, StatsRegistry& stats,
           CpuCosts costs = {});

  // Each method advances simulated time and charges energy.
  void execute_ops(std::uint64_t alu_ops);
  void hash_sha256(std::size_t bytes);
  void hmac_sha256(std::size_t bytes);
  void aes(std::size_t bytes);
  void chacha(std::size_t bytes);
  void drbg(std::size_t bytes);
  void modexp_2048();

  /// Raw busy time (e.g. polling loops, fixed firmware sequences).
  void busy_ns(double ns);

  std::uint64_t cycles() const noexcept { return cycles_; }
  double energy_nj() const noexcept {
    return static_cast<double>(cycles_) * costs_.energy_pj_per_cycle * 1e-3;
  }
  const CpuCosts& costs() const noexcept { return costs_; }

 private:
  void spend_cycles(double cycles, const char* what);

  EventScheduler& scheduler_;
  StatsRegistry& stats_;
  CpuCosts costs_;
  std::uint64_t cycles_ = 0;
};

struct MemoryCosts {
  double latency_ns = 60.0;        // DRAM row access
  double bandwidth_gb_per_s = 3.2; // LPDDR-class
  double energy_pj_per_byte = 20.0;
};

class MemoryModel {
 public:
  MemoryModel(EventScheduler& scheduler, StatsRegistry& stats,
              MemoryCosts costs = {});

  /// Charges one transfer of `bytes` (read or write symmetric).
  void transfer(std::size_t bytes);

  double energy_nj() const noexcept { return energy_nj_; }

 private:
  EventScheduler& scheduler_;
  StatsRegistry& stats_;
  MemoryCosts costs_;
  double energy_nj_ = 0.0;
};

}  // namespace neuropuls::sim
