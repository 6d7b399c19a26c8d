#pragma once
// Runtime CPU-feature detection for the vectorized kernel variants.
//
// The library is compiled once and must run correctly on any x86-64, so the
// fast kernels (MULX/ADX Montgomery and the AVX-512 IFMA lane kernels in
// src/mp, 4-way AVX2 ChaCha20 in src/cipher, SHA-NI SHA-256 in src/hash)
// are selected at runtime: CPUID is
// queried once per process and the result cached. Each accelerated
// translation unit is built with the matching -m flags but only ever entered
// after a positive runtime check, so no illegal instruction can execute on
// older hardware.
//
// HCPP_FORCE_GENERIC=1 in the environment forces every dispatcher back to the
// portable path. This is the differential-testing knob: the same binary runs
// its test suite twice (fast and generic) and the outputs must be identical.
// The env variable is sampled once and cached; tests that flip it in-process
// call refresh() to re-read it.

namespace hcpp::mp {

struct CpuFeatures {
  bool bmi2 = false;  // MULX
  bool adx = false;   // ADCX/ADOX
  bool avx2 = false;
  bool sha = false;  // SHA-NI (with the SSSE3/SSE4.1 it needs)
  // AVX-512 F + IFMA + VL, with the OS saving the opmask and zmm state.
  bool avx512ifma = false;
};

// CPUID-derived feature flags, detected once and cached. All-false on
// non-x86-64 builds.
const CpuFeatures& cpu_features();

// True when HCPP_FORCE_GENERIC is set to a non-empty value other than "0".
bool force_generic();

// Re-reads HCPP_FORCE_GENERIC from the environment. Only needed by tests
// that toggle the knob inside one process; ordinary code never calls this.
void refresh_dispatch();

}  // namespace hcpp::mp
