#include "crypto/block_kernels.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace neuropuls::crypto::detail {

namespace {

CpuFeatures probe() noexcept {
  CpuFeatures features;
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return features;
  constexpr unsigned kSse41 = 1u << 19;  // leaf 1, ECX
  constexpr unsigned kAes = 1u << 25;    // leaf 1, ECX
  const bool sse41 = (ecx & kSse41) != 0;
  features.aes_ni = sse41 && (ecx & kAes) != 0;

  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return features;
  constexpr unsigned kBmi2 = 1u << 8;  // leaf 7, EBX
  constexpr unsigned kAdx = 1u << 19;  // leaf 7, EBX
  constexpr unsigned kSha = 1u << 29;  // leaf 7, EBX
  features.sha_ni = sse41 && (ebx & kSha) != 0;
  features.bmi2_adx = (ebx & kBmi2) != 0 && (ebx & kAdx) != 0;
#endif
  return features;
}

}  // namespace

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures features = probe();
  return features;
}

}  // namespace neuropuls::crypto::detail
