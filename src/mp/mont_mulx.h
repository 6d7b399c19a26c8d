#pragma once
// MULX/ADCX/ADOX (BMI2 + ADX) Montgomery kernels for the fixed widths of the
// parameter sets, n = 4 and n = 8 limbs. The CIOS multiply is GCC inline asm
// in which every row is two carry chains, one on CF (ADCX) and one on OF
// (ADOX); the F_{p^2} kernels are Karatsuba compositions of it. The asm
// assembles whatever the -m flags, and is only ever entered after
// mp::cpu_features() reports both extensions at runtime, so the library
// binary itself stays portable x86-64. Each entry point computes bit-for-bit
// the same result as the portable kernel of the same width in mont.cpp — the
// differential suites in tests/test_dispatch.cpp pin that equivalence.
//
// On targets without the kernel (not x86-64 GCC/Clang), compiled() returns
// false and the entry points must not be called.

#include <cstddef>
#include <cstdint>

namespace hcpp::mp::mulx {

// True when this TU holds the asm kernels. Callers must additionally check
// the runtime CPU flags before dispatching here.
bool compiled() noexcept;

// CIOS Montgomery product r = a·b·R^{-1} mod m over 4 resp. 8 limbs, for
// a, b < m; r is fully reduced and may alias a or b.
void cios_mul4(uint64_t* r, const uint64_t* a, const uint64_t* b,
               const uint64_t* m, uint64_t n0inv) noexcept;
void cios_mul8(uint64_t* r, const uint64_t* a, const uint64_t* b,
               const uint64_t* m, uint64_t n0inv) noexcept;

// F_{p^2} = F_m[i]/(i^2+1) product (three CIOS products, Karatsuba) and
// square (two) of Montgomery residues < m. Outputs are fully reduced and
// must not alias the inputs.
void fp2_mul4(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
              const uint64_t* m, uint64_t n0inv) noexcept;
void fp2_mul8(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
              const uint64_t* m, uint64_t n0inv) noexcept;
void fp2_sqr4(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* m, uint64_t n0inv) noexcept;
void fp2_sqr8(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
              const uint64_t* ai, const uint64_t* m, uint64_t n0inv) noexcept;

}  // namespace hcpp::mp::mulx
