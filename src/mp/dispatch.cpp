#include "src/mp/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define HCPP_DISPATCH_X86_64 1
#endif

namespace hcpp::mp {

namespace {

CpuFeatures detect() {
  CpuFeatures f;
#ifdef HCPP_DISPATCH_X86_64
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  unsigned a1 = 0, b1 = 0, c1 = 0, d1 = 0;
  __cpuid(1, a1, b1, c1, d1);
  if (__get_cpuid_max(0, nullptr) >= 7) {
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    f.bmi2 = (ebx & bit_BMI2) != 0;
    f.adx = (ebx & bit_ADX) != 0;
    f.avx2 = (ebx & bit_AVX2) != 0;
    // The SHA-NI kernel also byte-shuffles (SSSE3) and blends (SSE4.1).
    f.sha = (ebx & bit_SHA) != 0 && (c1 & bit_SSSE3) != 0 &&
            (c1 & bit_SSE4_1) != 0;
    // AVX-512 F (bit 16), IFMA (bit 21) and VL (bit 31).
    f.avx512ifma = (ebx & (1u << 16)) != 0 && (ebx & (1u << 21)) != 0 &&
                   (ebx & (1u << 31)) != 0;
    // Both also need the OS to save their register state: XCR0 bits 1..2
    // (XMM, YMM) for AVX2, and bits 5..7 (opmask, ZMM_Hi256, Hi16_ZMM) too
    // for AVX-512.
    unsigned xcr0 = 0;
    if ((c1 & bit_OSXSAVE) != 0) {
      unsigned hi;
      __asm__("xgetbv" : "=a"(xcr0), "=d"(hi) : "c"(0));
    }
    if ((xcr0 & 0x6) != 0x6) f.avx2 = false;
    if ((xcr0 & 0xE6) != 0xE6) f.avx512ifma = false;
  }
#endif
  return f;
}

bool read_force_generic_env() {
  const char* v = std::getenv("HCPP_FORCE_GENERIC");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

std::atomic<bool> g_force_generic{read_force_generic_env()};

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect();
  return f;
}

bool force_generic() { return g_force_generic.load(std::memory_order_relaxed); }

void refresh_dispatch() {
  g_force_generic.store(read_force_generic_env(), std::memory_order_relaxed);
}

}  // namespace hcpp::mp
