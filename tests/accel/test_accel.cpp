// Accelerator tests: network serialization, both MVM engines, and the
// Table I secure API (round trip + plaintext-never-exposed properties).
#include <gtest/gtest.h>

#include <cmath>

#include "accel/secure_api.hpp"

namespace neuropuls::accel {
namespace {

MlpNetwork tiny_network() {
  MlpNetwork network;
  Layer layer;
  layer.inputs = 2;
  layer.outputs = 2;
  layer.weights = {1.0, 0.0, 0.0, 1.0};  // identity
  layer.biases = {0.5, -0.5};
  layer.activation = Activation::kLinear;
  network.layers.push_back(layer);
  return network;
}

TEST(Network, ValidationCatchesBrokenShapes) {
  MlpNetwork network = tiny_network();
  EXPECT_NO_THROW(network.validate());
  network.layers[0].weights.pop_back();
  EXPECT_THROW(network.validate(), std::invalid_argument);
  MlpNetwork empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);
  MlpNetwork chained = tiny_network();
  Layer second = chained.layers[0];
  second.inputs = 3;
  second.weights.assign(6, 0.0);
  chained.layers.push_back(second);
  EXPECT_THROW(chained.validate(), std::invalid_argument);
}

TEST(Network, SerializationRoundTrip) {
  const MlpNetwork network = make_random_network({4, 8, 3}, 17);
  const auto blob = serialize_network(network);
  const MlpNetwork parsed = deserialize_network(blob);
  ASSERT_EQ(parsed.layers.size(), network.layers.size());
  for (std::size_t l = 0; l < network.layers.size(); ++l) {
    EXPECT_EQ(parsed.layers[l].weights, network.layers[l].weights);
    EXPECT_EQ(parsed.layers[l].biases, network.layers[l].biases);
    EXPECT_EQ(parsed.layers[l].activation, network.layers[l].activation);
  }
  EXPECT_EQ(parsed.parameter_count(), network.parameter_count());
}

TEST(Network, DeserializeRejectsGarbage) {
  EXPECT_THROW(deserialize_network(crypto::Bytes(3, 0)), std::runtime_error);
  auto blob = serialize_network(tiny_network());
  blob.push_back(0);  // trailing byte
  EXPECT_THROW(deserialize_network(blob), std::runtime_error);
  auto wrong_version = serialize_network(tiny_network());
  wrong_version[3] = 9;
  EXPECT_THROW(deserialize_network(wrong_version), std::runtime_error);
}

TEST(Network, VectorRoundTrip) {
  const std::vector<double> v = {1.5, -2.25, 0.0, 1e-9, 3e12};
  EXPECT_EQ(deserialize_vector(serialize_vector(v)), v);
  EXPECT_TRUE(deserialize_vector(serialize_vector({})).empty());
}

TEST(Network, ActivationFunctions) {
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kRelu, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kRelu, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(apply_activation(Activation::kLinear, -3.0), -3.0);
  EXPECT_NEAR(apply_activation(Activation::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(apply_activation(Activation::kTanh, 100.0), 1.0, 1e-9);
}

TEST(DigitalMvm, ExactIdentityForward) {
  Accelerator accel(std::make_unique<DigitalMvm>());
  accel.load(tiny_network());
  const auto y = accel.infer({2.0, 3.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  EXPECT_DOUBLE_EQ(y[1], 2.5);
  EXPECT_EQ(accel.stats().mac_operations, 4u);
  EXPECT_GT(accel.stats().energy_pj, 0.0);
}

TEST(DigitalMvm, ErrorsOnMisuse) {
  Accelerator accel(std::make_unique<DigitalMvm>());
  EXPECT_THROW(accel.infer({1.0}), std::logic_error);
  accel.load(tiny_network());
  EXPECT_THROW(accel.infer({1.0, 2.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(Accelerator(nullptr), std::invalid_argument);
}

TEST(PhotonicMvm, QuantizationMatchesResolution) {
  PhotonicMvmConfig cfg;
  cfg.weight_bits = 4;
  cfg.weight_clip = 2.0;
  PhotonicMvm engine(cfg, 1);
  // 4 bits over [-2, 2]: step = 4/15.
  const double step = 4.0 / 15.0;
  const double q = engine.effective_weight(0.2);
  EXPECT_NEAR(std::fmod(q + 2.0, step), 0.0, 1e-9);
  EXPECT_NEAR(q, 0.2, step / 2.0 + 1e-12);
  // Clipping.
  EXPECT_DOUBLE_EQ(engine.effective_weight(10.0), 2.0);
  EXPECT_DOUBLE_EQ(engine.effective_weight(-10.0), -2.0);
}

TEST(PhotonicMvm, CloseToDigitalButNotExact) {
  const MlpNetwork network = make_random_network({16, 32, 8}, 3);
  Accelerator digital(std::make_unique<DigitalMvm>());
  PhotonicMvmConfig cfg;
  cfg.weight_bits = 8;
  Accelerator photonic(std::make_unique<PhotonicMvm>(cfg, 5));
  digital.load(network);
  photonic.load(network);

  std::vector<double> input(16);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = 0.1 * static_cast<double>(i) - 0.8;
  }
  const auto exact = digital.infer(input);
  const auto analog = photonic.infer(input);
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    err += std::fabs(exact[i] - analog[i]);
    scale += std::fabs(exact[i]);
  }
  EXPECT_GT(err, 0.0);            // analog noise is real
  EXPECT_LT(err, 0.2 * scale + 0.3);  // but small
}

TEST(PhotonicMvm, FarCheaperThanDigital) {
  const MlpNetwork network = make_random_network({32, 32}, 4);
  Accelerator digital(std::make_unique<DigitalMvm>());
  Accelerator photonic(std::make_unique<PhotonicMvm>(PhotonicMvmConfig{}, 6));
  digital.load(network);
  photonic.load(network);
  const std::vector<double> input(32, 0.5);
  digital.infer(input);
  photonic.infer(input);
  EXPECT_GT(digital.stats().energy_pj, 10.0 * photonic.stats().energy_pj);
}

TEST(PhotonicMvm, RejectsBadConfig) {
  PhotonicMvmConfig cfg;
  cfg.weight_bits = 0;
  EXPECT_THROW(PhotonicMvm(cfg, 1), std::invalid_argument);
}

// ---- Table I secure API --------------------------------------------------------

TEST(SecureApi, TableOneRoundTrip) {
  const crypto::Bytes key = crypto::bytes_of("device key from weak PUF");
  SecureAccelerator device(std::make_unique<DigitalMvm>(),
                           common::SecretBytes::copy_of(key));

  // Party with the key prepares ciphered blobs.
  const MlpNetwork network = tiny_network();
  const auto ciphered_network =
      SecureAccelerator::encrypt_network(network, key, 1);
  device.load_network(ciphered_network);
  EXPECT_TRUE(device.network_loaded());

  const auto ciphered_input =
      SecureAccelerator::encrypt_input({2.0, 3.0}, key, 2);
  const auto ciphered_output = device.execute_network(ciphered_input);
  const auto output = SecureAccelerator::decrypt_output(ciphered_output, key);
  ASSERT_EQ(output.size(), 2u);
  EXPECT_DOUBLE_EQ(output[0], 2.5);
  EXPECT_DOUBLE_EQ(output[1], 2.5);
}

TEST(SecureApi, OutputIsNotPlaintext) {
  const crypto::Bytes key = crypto::bytes_of("k");
  SecureAccelerator device(std::make_unique<DigitalMvm>(),
                           common::SecretBytes::copy_of(key));
  device.load_network(
      SecureAccelerator::encrypt_network(tiny_network(), key, 1));
  const auto ciphered_output = device.execute_network(
      SecureAccelerator::encrypt_input({2.0, 3.0}, key, 2));
  // The plaintext serialization must not appear inside the output frame.
  const auto plain = serialize_vector({2.5, 2.5});
  const std::string haystack(ciphered_output.begin(), ciphered_output.end());
  const std::string needle(plain.begin() + 4, plain.end());  // f64 bytes
  EXPECT_EQ(haystack.find(needle), std::string::npos);
}

TEST(SecureApi, WrongKeyRejected) {
  SecureAccelerator device(
      std::make_unique<DigitalMvm>(),
      common::SecretBytes(crypto::bytes_of("device key")));
  const auto blob = SecureAccelerator::encrypt_network(
      tiny_network(), crypto::bytes_of("attacker key"), 1);
  EXPECT_THROW(device.load_network(blob), std::runtime_error);
  EXPECT_FALSE(device.network_loaded());
}

TEST(SecureApi, TamperedBlobRejected) {
  const crypto::Bytes key = crypto::bytes_of("k");
  SecureAccelerator device(std::make_unique<DigitalMvm>(),
                           common::SecretBytes::copy_of(key));
  auto blob = SecureAccelerator::encrypt_network(tiny_network(), key, 1);
  blob[blob.size() / 2] ^= 0x40;
  EXPECT_THROW(device.load_network(blob), std::runtime_error);
}

TEST(SecureApi, ExecuteBeforeLoadFails) {
  const crypto::Bytes key = crypto::bytes_of("k");
  SecureAccelerator device(std::make_unique<DigitalMvm>(),
                           common::SecretBytes::copy_of(key));
  EXPECT_THROW(
      device.execute_network(SecureAccelerator::encrypt_input({1.0}, key, 1)),
      std::logic_error);
}

TEST(SecureApi, FreshNoncePerExecution) {
  const crypto::Bytes key = crypto::bytes_of("k");
  SecureAccelerator device(std::make_unique<DigitalMvm>(),
                           common::SecretBytes::copy_of(key));
  device.load_network(
      SecureAccelerator::encrypt_network(tiny_network(), key, 1));
  const auto in = SecureAccelerator::encrypt_input({1.0, 1.0}, key, 2);
  const auto out1 = device.execute_network(in);
  const auto out2 = device.execute_network(in);
  // Same input, same plaintext result — but distinct ciphertexts.
  EXPECT_NE(out1, out2);
  EXPECT_EQ(SecureAccelerator::decrypt_output(out1, key),
            SecureAccelerator::decrypt_output(out2, key));
}

TEST(SecureApi, EncryptInputKnownAnswer) {
  const crypto::Bytes key = crypto::bytes_of("device key from weak PUF");
  EXPECT_EQ(crypto::to_hex(
                SecureAccelerator::encrypt_input({2.0, -3.5}, key, 7)),
            "00000000000000000000000000000007"
            "9605849f48488f2e63b9f14e12a66177"
            "a50d03cbbbf8b6e2a4a0e761a78bfd83"
            "aa3116e2");
}

// The device-side frame: the first execute after construction seals under
// nonce 0x80000001, so the output bytes are a pure function of the key,
// the network and the input.
TEST(SecureApi, ExecuteNetworkKnownAnswer) {
  const crypto::Bytes key = crypto::bytes_of("device key from weak PUF");
  SecureAccelerator device(std::make_unique<DigitalMvm>(),
                           common::SecretBytes::copy_of(key));
  device.load_network(
      SecureAccelerator::encrypt_network(tiny_network(), key, 1));
  const auto ciphered_output = device.execute_network(
      SecureAccelerator::encrypt_input({2.0, -3.5}, key, 7));
  EXPECT_EQ(crypto::to_hex(ciphered_output),
            "00000000000000000000000080000001"
            "0b44d4943717d91139b5f77c7fe42a60"
            "e4f4ca2c"
            "91fdf63e52d8e9f09ff3c75d3dad1a87");
  EXPECT_EQ(SecureAccelerator::decrypt_output(ciphered_output, key),
            (std::vector<double>{2.5, -4.0}));
}

TEST(SecureApi, EmptyKeyRejected) {
  EXPECT_THROW(SecureAccelerator(std::make_unique<DigitalMvm>(), {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace neuropuls::accel
