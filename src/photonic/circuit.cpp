#include "photonic/circuit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace neuropuls::photonic {

ScramblerCircuit::ScramblerCircuit(const ScramblerDesign& design,
                                   const FabricationModel& fabrication)
    : design_(design) {
  if (design_.ports < 2 || design_.ports % 2 != 0) {
    throw std::invalid_argument("ScramblerCircuit: ports must be even, >= 2");
  }
  if (design_.layers == 0) {
    throw std::invalid_argument("ScramblerCircuit: need at least one layer");
  }

  // The design RNG fixes the nominal layout (identical on every device).
  rng::Xoshiro256 design_rng(design_.design_seed);
  std::uint64_t component_index = 0;

  // Input fan-out tree: one designed-random path per port.
  input_taps_.reserve(design_.ports);
  for (std::size_t port = 0; port < design_.ports; ++port) {
    const double length = design_rng.uniform(design_.waveguide_min_length,
                                             design_.waveguide_max_length);
    Waveguide tap(length, design_.loss_db_per_cm);
    tap.apply(fabrication.sample(component_index++));
    input_taps_.push_back(tap);
  }

  couplers_.resize(design_.layers);
  waveguides_.resize(design_.layers);
  rings_.resize(design_.layers);

  for (std::size_t layer = 0; layer < design_.layers; ++layer) {
    // Brick-wall coupler stage: even layers pair (0,1)(2,3)...; odd layers
    // pair (1,2)(3,4)... leaving the edge ports straight.
    const std::size_t offset = layer % 2;
    const std::size_t pairs = (design_.ports - offset) / 2;
    couplers_[layer].reserve(pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
      // Nominal ratio jittered by design so the mesh is not degenerate.
      const double nominal = design_.coupler_ratio +
                             design_rng.uniform(-0.15, 0.15);
      DirectionalCoupler coupler(nominal);
      coupler.apply(fabrication.sample(component_index++));
      couplers_[layer].push_back(coupler);
    }

    waveguides_[layer].reserve(design_.ports);
    for (std::size_t port = 0; port < design_.ports; ++port) {
      const double length = design_rng.uniform(design_.waveguide_min_length,
                                               design_.waveguide_max_length);
      Waveguide wg(length, design_.loss_db_per_cm);
      wg.apply(fabrication.sample(component_index++));
      waveguides_[layer].push_back(wg);
    }

    if (design_.with_rings) {
      rings_[layer].reserve(design_.ports);
      for (std::size_t port = 0; port < design_.ports; ++port) {
        RingParameters rp;
        rp.radius =
            design_rng.uniform(design_.ring_radius_min, design_.ring_radius_max);
        rp.power_coupling_in = design_rng.uniform(0.05, 0.3);
        rp.loss_db_per_cm = design_.loss_db_per_cm + 1.0;
        MicroringAllPass ring(rp);
        ring.apply(fabrication.sample(component_index++));
        rings_[layer].push_back(ring);
      }
    }
  }
}

PortVector ScramblerCircuit::evaluate(const OperatingPoint& op,
                                      const PortVector& in) const {
  if (in.size() != design_.ports) {
    throw std::invalid_argument("ScramblerCircuit::evaluate: port mismatch");
  }
  PortVector state = in;
  for (std::size_t layer = 0; layer < design_.layers; ++layer) {
    const std::size_t offset = layer % 2;
    for (std::size_t p = 0; p < couplers_[layer].size(); ++p) {
      const std::size_t a = offset + 2 * p;
      const std::size_t b = a + 1;
      if (b >= state.size()) break;
      const auto out = couplers_[layer][p].couple(state[a], state[b]);
      state[a] = out[0];
      state[b] = out[1];
    }
    for (std::size_t port = 0; port < design_.ports; ++port) {
      state[port] *= waveguides_[layer][port].transfer(op);
    }
    if (design_.with_rings) {
      for (std::size_t port = 0; port < design_.ports; ++port) {
        state[port] *= rings_[layer][port].through(op);
      }
    }
  }
  return state;
}

PortVector ScramblerCircuit::input_coefficients(
    const OperatingPoint& op) const {
  const double split = 1.0 / std::sqrt(static_cast<double>(design_.ports));
  PortVector coeffs(design_.ports);
  for (std::size_t port = 0; port < design_.ports; ++port) {
    coeffs[port] = split * input_taps_[port].transfer(op);
  }
  return coeffs;
}

double ScramblerCircuit::memory_depth_seconds() const noexcept {
  // Heuristic bound: per layer, slowest ring's round trip times the
  // effective number of round trips before the stored energy decays to
  // 1/e^3 (~ -13 dB), summed over layers, plus waveguide group delays.
  double total = 0.0;
  for (std::size_t layer = 0; layer < design_.layers; ++layer) {
    double worst = 0.0;
    if (design_.with_rings) {
      for (const auto& ring : rings_[layer]) {
        const double a = ring.round_trip_amplitude();
        const double t = std::sqrt(1.0 - ring.params().power_coupling_in);
        const double per_trip = a * t;
        // Trips until (a t)^n < e^-3.
        const double trips =
            per_trip >= 1.0 ? 1.0 : 3.0 / -std::log(per_trip);
        worst = std::max(worst, ring.round_trip_delay() * trips);
      }
    }
    double wg_delay = 0.0;
    for (const auto& wg : waveguides_[layer]) {
      wg_delay = std::max(wg_delay, wg.group_delay());
    }
    total += worst + wg_delay;
  }
  return total;
}

ScramblerTables::ScramblerTables(const ScramblerCircuit& circuit,
                                 const OperatingPoint& op,
                                 double sample_period_s)
    : ports_(circuit.design().ports),
      layers_(circuit.design().layers),
      with_rings_(circuit.design().with_rings) {
  coupler_tk_.resize(layers_);
  waveguide_transfer_.resize(layers_);
  ring_constants_.resize(layers_);
  for (std::size_t layer = 0; layer < layers_; ++layer) {
    for (const auto& coupler : circuit.couplers_[layer]) {
      const double k2 = coupler.power_coupling_ratio();
      coupler_tk_[layer].push_back({std::sqrt(1.0 - k2), std::sqrt(k2)});
    }
    for (const auto& wg : circuit.waveguides_[layer]) {
      waveguide_transfer_[layer].push_back(wg.transfer(op));
    }
    if (with_rings_) {
      ring_constants_[layer].reserve(ports_);
      for (const auto& ring : circuit.rings_[layer]) {
        ring_constants_[layer].push_back(
            RingTimeDomainConstants::of(ring, op, sample_period_s));
      }
    }
  }
  taps_ = circuit.input_coefficients(op);
}

TimeDomainScrambler::TimeDomainScrambler(const ScramblerCircuit& circuit,
                                         const OperatingPoint& op,
                                         double sample_period_s)
    : TimeDomainScrambler(
          std::make_shared<const ScramblerTables>(circuit, op,
                                                  sample_period_s)) {}

TimeDomainScrambler::TimeDomainScrambler(
    std::shared_ptr<const ScramblerTables> tables)
    : tables_(std::move(tables)) {
  if (!tables_) {
    throw std::invalid_argument("TimeDomainScrambler: null tables");
  }
  ring_states_.resize(tables_->layers_);
  if (tables_->with_rings_) {
    for (std::size_t layer = 0; layer < tables_->layers_; ++layer) {
      ring_states_[layer].reserve(tables_->ports_);
      for (const auto& constants : tables_->ring_constants_[layer]) {
        ring_states_[layer].emplace_back(constants);
      }
    }
  }
}

TimeDomainScrambler::TimeDomainScrambler(
    std::shared_ptr<const ScramblerTables> tables, std::size_t lanes)
    : tables_(std::move(tables)), lanes_(lanes) {
  if (!tables_) {
    throw std::invalid_argument("TimeDomainScrambler: null tables");
  }
  if (lanes_ == 0) {
    throw std::invalid_argument("TimeDomainScrambler: lanes must be > 0");
  }
  if (tables_->with_rings_) {
    std::size_t state_size = 0;
    for (const auto& layer : tables_->ring_constants_) {
      for (const auto& constants : layer) {
        state_size += RingTimeDomainBlock::state_size(constants, lanes_);
      }
    }
    ring_state_.assign(state_size, 0.0);
    ring_blocks_.reserve(tables_->layers_ * tables_->ports_);
    double* state = ring_state_.data();
    for (const auto& layer : tables_->ring_constants_) {
      for (const auto& constants : layer) {
        ring_blocks_.emplace_back(constants, lanes_, state);
        state += RingTimeDomainBlock::state_size(constants, lanes_);
      }
    }
  }
}

void TimeDomainScrambler::step_inplace(PortVector& state) {
  const ScramblerTables& t = *tables_;
  if (state.size() != t.ports_) {
    throw std::invalid_argument("TimeDomainScrambler::step: port mismatch");
  }
  for (std::size_t layer = 0; layer < t.layers_; ++layer) {
    const std::size_t offset = layer % 2;
    const auto& couplers = t.coupler_tk_[layer];
    for (std::size_t p = 0; p < couplers.size(); ++p) {
      const std::size_t a = offset + 2 * p;
      const std::size_t b = a + 1;
      if (b >= state.size()) break;
      const double tc = couplers[p][0];
      const double k = couplers[p][1];
      const Complex minus_ik(0.0, -k);
      const Complex s0 = tc * state[a] + minus_ik * state[b];
      const Complex s1 = minus_ik * state[a] + tc * state[b];
      state[a] = s0;
      state[b] = s1;
    }
    const auto& transfers = t.waveguide_transfer_[layer];
    for (std::size_t port = 0; port < t.ports_; ++port) {
      state[port] *= transfers[port];
    }
    if (t.with_rings_) {
      auto& rings = ring_states_[layer];
      for (std::size_t port = 0; port < t.ports_; ++port) {
        state[port] = rings[port].step(state[port]);
      }
    }
  }
}

PortVector TimeDomainScrambler::step(const PortVector& in) {
  PortVector state = in;
  step_inplace(state);
  return state;
}

void TimeDomainScrambler::step_block(FieldBlock& block) {
  const ScramblerTables& t = *tables_;
  if (lanes_ == 0) {
    throw std::logic_error(
        "TimeDomainScrambler::step_block: scalar-mode instance");
  }
  if (block.ports() != t.ports_ || block.lanes() != lanes_) {
    throw std::invalid_argument(
        "TimeDomainScrambler::step_block: block dims mismatch");
  }
  const std::size_t w = lanes_;
  for (std::size_t layer = 0; layer < t.layers_; ++layer) {
    const std::size_t offset = layer % 2;
    const auto& couplers = t.coupler_tk_[layer];
    for (std::size_t p = 0; p < couplers.size(); ++p) {
      const std::size_t a = offset + 2 * p;
      const std::size_t b = a + 1;
      if (b >= t.ports_) break;
      simd::coupler_mix(block.re(a), block.im(a), block.re(b), block.im(b),
                        couplers[p][0], couplers[p][1], w);
    }
    const auto& transfers = t.waveguide_transfer_[layer];
    for (std::size_t port = 0; port < t.ports_; ++port) {
      simd::complex_scale(block.re(port), block.im(port),
                          transfers[port].real(), transfers[port].imag(), w);
    }
    if (t.with_rings_) {
      RingTimeDomainBlock* rings = ring_blocks_.data() + layer * t.ports_;
      for (std::size_t port = 0; port < t.ports_; ++port) {
        rings[port].step(block.re(port), block.im(port));
      }
    }
  }
}

std::vector<std::vector<Complex>> TimeDomainScrambler::scramble_series(
    const std::vector<Complex>& port0_in) {
  const std::size_t n_ports = ports();
  const std::size_t n_samples = port0_in.size();
  // Size every per-port stream up front and write by index: the sample
  // loop then performs zero allocations (one scratch state, reused).
  std::vector<std::vector<Complex>> outputs(n_ports);
  for (auto& v : outputs) v.assign(n_samples, Complex{0.0, 0.0});
  PortVector state(n_ports, Complex{0.0, 0.0});
  for (std::size_t n = 0; n < n_samples; ++n) {
    std::fill(state.begin(), state.end(), Complex{0.0, 0.0});
    state[0] = port0_in[n];
    step_inplace(state);
    for (std::size_t port = 0; port < n_ports; ++port) {
      outputs[port][n] = state[port];
    }
  }
  return outputs;
}

void TimeDomainScrambler::reset() noexcept {
  for (auto& layer : ring_states_) {
    for (auto& ring : layer) ring.reset();
  }
  for (auto& ring : ring_blocks_) ring.reset();
}

std::shared_ptr<const ScramblerTables> make_scrambler_tables(
    const ScramblerCircuit& circuit, const OperatingPoint& op,
    double sample_period_s) {
  return std::make_shared<const ScramblerTables>(circuit, op,
                                                 sample_period_s);
}

}  // namespace neuropuls::photonic
