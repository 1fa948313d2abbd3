// Tests for the lane-parallel SoA engine: FieldBlock storage, the simd.hpp
// kernels against their scalar std::complex equivalents, RingTimeDomainBlock
// state handling, TimeDomainScrambler::step_block vs step_inplace, the
// scramble_series streaming path, and the end-to-end contract that block
// batch evaluation of a PhotonicPuf is bit-identical to its one-lane
// single evaluation at every batch size (full blocks, tail blocks, single
// lanes).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/simd.hpp"
#include "crypto/chacha20.hpp"
#include "photonic/circuit.hpp"
#include "photonic/field_block.hpp"
#include "photonic/ring.hpp"
#include "puf/photonic_puf.hpp"

namespace neuropuls::photonic {
namespace {

constexpr std::size_t kLanes = simd::kDefaultLanes;

ScramblerDesign small_design() {
  ScramblerDesign d;
  d.ports = 8;
  d.layers = 4;
  return d;
}

/// Deterministic, non-trivial per-lane complex values.
Complex lane_value(std::size_t port, std::size_t lane) {
  const double base = static_cast<double>(port * 31 + lane * 7 + 1);
  return {0.01 * base, -0.003 * base + 0.5};
}

TEST(FieldBlock, DimensionsAndZeroInit) {
  FieldBlock block(4, kLanes);
  EXPECT_EQ(block.ports(), 4u);
  EXPECT_EQ(block.lanes(), kLanes);
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      EXPECT_EQ(block.at(p, l), (Complex{0.0, 0.0}));
    }
  }
}

TEST(FieldBlock, RejectsEmptyDimensions) {
  EXPECT_THROW(FieldBlock(0, 4), std::invalid_argument);
  EXPECT_THROW(FieldBlock(4, 0), std::invalid_argument);
}

TEST(FieldBlock, SetAtRoundTripAndPlaneLayout) {
  FieldBlock block(3, 5);
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t l = 0; l < 5; ++l) {
      block.set(p, l, lane_value(p, l));
    }
  }
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t l = 0; l < 5; ++l) {
      EXPECT_EQ(block.at(p, l), lane_value(p, l));
      // The plane pointers must alias the same storage as at().
      EXPECT_EQ(block.re(p)[l], lane_value(p, l).real());
      EXPECT_EQ(block.im(p)[l], lane_value(p, l).imag());
    }
  }
  block.clear();
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t l = 0; l < 5; ++l) {
      EXPECT_EQ(block.at(p, l), (Complex{0.0, 0.0}));
    }
  }
}

TEST(FieldBlock, PlanesAreAligned) {
  FieldBlock block(2, kLanes);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block.re(0)) %
                simd::kLaneAlignment,
            0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block.im(0)) %
                simd::kLaneAlignment,
            0u);
}

TEST(SimdKernels, ComplexScaleMatchesScalarComplex) {
  const Complex c{0.8, -0.6};
  simd::AlignedVector<double> re(kLanes), im(kLanes);
  std::vector<Complex> reference(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    reference[l] = lane_value(0, l);
    re[l] = reference[l].real();
    im[l] = reference[l].imag();
  }
  simd::complex_scale(re.data(), im.data(), c.real(), c.imag(), kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    Complex scalar = reference[l];
    scalar *= c;
    EXPECT_EQ(re[l], scalar.real()) << "lane " << l;
    EXPECT_EQ(im[l], scalar.imag()) << "lane " << l;
  }
}

TEST(SimdKernels, FanoutMatchesScalarComplex) {
  const Complex tap{0.31, 0.17};
  simd::AlignedVector<double> sre(kLanes), sim_(kLanes), dre(kLanes),
      dim(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    sre[l] = lane_value(1, l).real();
    sim_[l] = lane_value(1, l).imag();
  }
  simd::complex_fanout(sre.data(), sim_.data(), tap.real(), tap.imag(),
                       dre.data(), dim.data(), kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    const Complex scalar = lane_value(1, l) * tap;
    EXPECT_EQ(dre[l], scalar.real()) << "lane " << l;
    EXPECT_EQ(dim[l], scalar.imag()) << "lane " << l;
  }
}

TEST(SimdKernels, CouplerMixMatchesScalarComplex) {
  const double t = 0.83;
  const double k = 0.55;
  simd::AlignedVector<double> are(kLanes), aim(kLanes), bre(kLanes),
      bim(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    are[l] = lane_value(2, l).real();
    aim[l] = lane_value(2, l).imag();
    bre[l] = lane_value(3, l).real();
    bim[l] = lane_value(3, l).imag();
  }
  simd::coupler_mix(are.data(), aim.data(), bre.data(), bim.data(), t, k,
                    kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    // The scalar formula of TimeDomainScrambler::step_inplace.
    const Complex a = lane_value(2, l);
    const Complex b = lane_value(3, l);
    const Complex minus_ik(0.0, -k);
    const Complex s0 = t * a + minus_ik * b;
    const Complex s1 = minus_ik * a + t * b;
    EXPECT_EQ(are[l], s0.real()) << "lane " << l;
    EXPECT_EQ(aim[l], s0.imag()) << "lane " << l;
    EXPECT_EQ(bre[l], s1.real()) << "lane " << l;
    EXPECT_EQ(bim[l], s1.imag()) << "lane " << l;
  }
}

TEST(RingBlock, MatchesScalarRingPerLane) {
  RingTimeDomainConstants constants;
  constants.t = 0.9;
  constants.k = 0.43589;
  constants.feedback = Complex{0.7, -0.55};
  constants.delay_samples = 3;

  simd::AlignedVector<double> state(
      RingTimeDomainBlock::state_size(constants, kLanes));
  RingTimeDomainBlock block_ring(constants, kLanes, state.data());
  std::vector<RingTimeDomain> scalar_rings(kLanes,
                                           RingTimeDomain(constants));

  simd::AlignedVector<double> re(kLanes), im(kLanes);
  for (int step = 0; step < 17; ++step) {
    std::vector<Complex> inputs(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      inputs[l] = lane_value(static_cast<std::size_t>(step), l);
      re[l] = inputs[l].real();
      im[l] = inputs[l].imag();
    }
    block_ring.step(re.data(), im.data());
    for (std::size_t l = 0; l < kLanes; ++l) {
      const Complex scalar = scalar_rings[l].step(inputs[l]);
      EXPECT_EQ(re[l], scalar.real()) << "step " << step << " lane " << l;
      EXPECT_EQ(im[l], scalar.imag()) << "step " << step << " lane " << l;
    }
  }
}

TEST(RingBlock, ResetClearsStateBetweenBlocks) {
  RingTimeDomainConstants constants;
  constants.delay_samples = 2;
  constants.t = 0.8;
  constants.k = 0.6;
  constants.feedback = Complex{0.9, 0.1};
  simd::AlignedVector<double> state(
      RingTimeDomainBlock::state_size(constants, 4));
  RingTimeDomainBlock ring(constants, 4, state.data());

  simd::AlignedVector<double> re(4), im(4);
  auto run_block = [&]() {
    std::vector<double> outputs;
    for (int step = 0; step < 5; ++step) {
      for (std::size_t l = 0; l < 4; ++l) {
        re[l] = 1.0 + static_cast<double>(step + 1) * 0.25;
        im[l] = -0.5;
      }
      ring.step(re.data(), im.data());
      for (std::size_t l = 0; l < 4; ++l) {
        outputs.push_back(re[l]);
        outputs.push_back(im[l]);
      }
    }
    return outputs;
  };

  const auto first = run_block();
  const auto dirty = run_block();  // carries state from the first block
  EXPECT_NE(first, dirty);
  ring.reset();
  const auto clean = run_block();  // reset must reproduce the first block
  EXPECT_EQ(first, clean);
}

TEST(ScramblerBlock, StepBlockBitIdenticalToStepInplace) {
  ScramblerCircuit circuit(small_design(), FabricationModel(7, 3));
  auto tables = make_scrambler_tables(circuit, OperatingPoint{}, 40e-12);

  TimeDomainScrambler block_mode(tables, kLanes);
  std::vector<TimeDomainScrambler> scalar_mode;
  for (std::size_t l = 0; l < kLanes; ++l) scalar_mode.emplace_back(tables);

  FieldBlock block(tables->ports(), kLanes);
  std::vector<PortVector> states(kLanes,
                                 PortVector(tables->ports(), Complex{}));
  for (int step = 0; step < 25; ++step) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t p = 0; p < tables->ports(); ++p) {
        const Complex v =
            lane_value(p + static_cast<std::size_t>(step), l);
        block.set(p, l, v);
        states[l][p] = v;
      }
    }
    block_mode.step_block(block);
    for (std::size_t l = 0; l < kLanes; ++l) {
      scalar_mode[l].step_inplace(states[l]);
      for (std::size_t p = 0; p < tables->ports(); ++p) {
        EXPECT_EQ(block.at(p, l), states[l][p])
            << "step " << step << " port " << p << " lane " << l;
      }
    }
  }
}

TEST(ScramblerBlock, RejectsMismatchedBlockAndScalarInstance) {
  ScramblerCircuit circuit(small_design(), FabricationModel(7, 3));
  auto tables = make_scrambler_tables(circuit, OperatingPoint{}, 40e-12);
  EXPECT_THROW(TimeDomainScrambler(tables, 0), std::invalid_argument);

  TimeDomainScrambler block_mode(tables, 4);
  FieldBlock wrong_lanes(tables->ports(), 5);
  EXPECT_THROW(block_mode.step_block(wrong_lanes), std::invalid_argument);
  FieldBlock wrong_ports(tables->ports() + 2, 4);
  EXPECT_THROW(block_mode.step_block(wrong_ports), std::invalid_argument);

  TimeDomainScrambler scalar_mode(tables);
  FieldBlock ok(tables->ports(), 4);
  EXPECT_THROW(scalar_mode.step_block(ok), std::logic_error);
}

TEST(ScramblerBlock, ScrambleSeriesMatchesManualStepping) {
  ScramblerCircuit circuit(small_design(), FabricationModel(9, 1));
  auto tables = make_scrambler_tables(circuit, OperatingPoint{}, 40e-12);

  std::vector<Complex> input;
  for (int i = 0; i < 40; ++i) {
    input.push_back(lane_value(static_cast<std::size_t>(i), 0));
  }

  TimeDomainScrambler series(tables);
  const auto streams = series.scramble_series(input);
  ASSERT_EQ(streams.size(), tables->ports());
  for (const auto& stream : streams) {
    ASSERT_EQ(stream.size(), input.size());
  }

  TimeDomainScrambler reference(tables);
  PortVector state(tables->ports(), Complex{});
  for (std::size_t n = 0; n < input.size(); ++n) {
    std::fill(state.begin(), state.end(), Complex{});
    state[0] = input[n];
    reference.step_inplace(state);
    for (std::size_t p = 0; p < tables->ports(); ++p) {
      EXPECT_EQ(streams[p][n], state[p]) << "sample " << n << " port " << p;
    }
  }
}

// The headline contract: batch evaluation through the lane-block engine is
// bit-identical to the serial scalar reference at every block shape — one
// lane, a partial tail, an exact block, one lane over, and multiple blocks
// plus tail (W = kDefaultLanes).
TEST(ScramblerBlock, NoiselessBatchBitIdenticalAcrossBatchSizes) {
  puf::PhotonicPuf device(puf::small_photonic_config(), 0x5eed, 2);
  crypto::ChaChaDrbg rng(crypto::bytes_of("field-block-batch-sweep"));

  const std::size_t sizes[] = {1, kLanes - 1, kLanes, kLanes + 1,
                               3 * kLanes + 2};
  for (const std::size_t size : sizes) {
    std::vector<puf::Challenge> challenges;
    challenges.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      challenges.push_back(rng.generate(device.challenge_bytes()));
    }
    const auto batch = device.evaluate_noiseless_batch(challenges);
    ASSERT_EQ(batch.size(), size);
    for (std::size_t i = 0; i < size; ++i) {
      EXPECT_EQ(batch[i], device.evaluate_noiseless(challenges[i]))
          << "batch size " << size << " item " << i;
    }
  }
}

}  // namespace
}  // namespace neuropuls::photonic
