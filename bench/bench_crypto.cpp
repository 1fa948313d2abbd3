// E12 / §I — Crypto-substrate microbenchmarks backing the "lightweight"
// requirement: hash/MAC/cipher/DRBG throughput and the modexp outlier.
#include "bench_util.hpp"
#include "crypto/aes.hpp"
#include "crypto/bignum.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/siphash.hpp"

namespace {

using namespace neuropuls::crypto;

void print_overview() {
  neuropuls::bench::banner(
      "E12 / §I", "Crypto substrate (software, this host) — see timing "
                  "cases below for numbers");
  neuropuls::bench::note(
      "the protocols use: SHA-256/HMAC (auth, attestation), AES-CTR+CMAC "
      "(Table I boundary, keyed once per key), ChaCha DRBG (challenge "
      "derivation, walks), 2048-bit modexp (EKE only).");
}

const Bytes kData16k(16 * 1024, 0xA7);
const Bytes kKey32(32, 0x42);
const Bytes kKey16(16, 0x42);

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5C);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5C);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(kKey32, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_AesCtr(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5C);
  const Bytes nonce(16, 0x01);
  const Aes cipher(kKey16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes_ctr(cipher, nonce, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(1024)->Arg(16384);

void BM_AesCmac(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5C);
  const Aes cipher(kKey16);
  // A one-use context per tag: the subkeys are derived on every call.
  for (auto _ : state) {
    Bytes tag(Cmac::kTagSize);
    Cmac(cipher).tag(data, std::span<std::uint8_t, Cmac::kTagSize>(tag));
    benchmark::DoNotOptimize(tag);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AesCmac)->Arg(1024)->Arg(16384);

// A sealed frame under a keyed context, as the accelerator seals its
// outputs: CTR then CMAC, no key derivation per frame. 144 bytes is the
// plaintext of a 16-value vector plus its length prefix. Deriving the keys
// per call (a CtrThenMac per frame) runs several times slower.
void BM_CtrThenMacSeal(benchmark::State& state) {
  const Bytes plaintext(static_cast<std::size_t>(state.range(0)), 0x5C);
  const Bytes nonce(16, 0x01);
  const CtrThenMac context(kKey32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.seal(nonce, plaintext));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CtrThenMacSeal)->Arg(144);

void BM_ChaCha20(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0x5C);
  const Bytes nonce(12, 0x01);
  for (auto _ : state) {
    Bytes out = data;
    chacha20_xor_inplace(kKey32, nonce, 0, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(1024)->Arg(16384);

void BM_ChaChaDrbg(benchmark::State& state) {
  ChaChaDrbg rng(bytes_of("bench"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.generate(1024));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_ChaChaDrbg);

void BM_SipHash(benchmark::State& state) {
  std::array<std::uint8_t, 16> key{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(siphash24(key, kData16k));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kData16k.size()));
}
BENCHMARK(BM_SipHash);

void BM_Modexp(benchmark::State& state) {
  const auto& group = state.range(0) == 1536 ? DhGroup::modp1536()
                                             : DhGroup::modp2048();
  ChaChaDrbg rng(bytes_of("modexp-bench"));
  const auto pair = dh_generate(group, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        modexp(group.generator, pair.secret, group.prime));
  }
}
BENCHMARK(BM_Modexp)->Arg(1536)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_FullDhExchange(benchmark::State& state) {
  const auto& group = DhGroup::modp2048();
  ChaChaDrbg rng_a(bytes_of("a")), rng_b(bytes_of("b"));
  for (auto _ : state) {
    const auto alice = dh_generate(group, rng_a);
    const auto bob = dh_generate(group, rng_b);
    benchmark::DoNotOptimize(
        dh_shared_secret(group, alice.secret, bob.public_value));
  }
}
BENCHMARK(BM_FullDhExchange)->Unit(benchmark::kMillisecond);

}  // namespace

NEUROPULS_BENCH_MAIN(print_overview)
