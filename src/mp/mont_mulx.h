#pragma once
// MULX/ADCX/ADOX (BMI2 + ADX) Montgomery kernels for the fixed widths of the
// parameter sets, N = 4 and N = 8 limbs. They are GCC inline asm built from
// one row: MULX products over N limbs added on two carry chains, one on CF
// (ADCX) and one on OF (ADOX). N rows make a CIOS product (with a reduction
// row each), a wide product, or a Montgomery reduction (REDC); a squaring
// runs the half-length rows of the off-diagonal triangle, doubles it and adds
// the diagonal. The asm assembles whatever the -m flags, and is only ever
// entered after mp::cpu_features() reports both extensions at runtime, so
// the library binary itself stays portable x86-64. Each entry point computes
// bit-for-bit the same fully reduced result as the portable kernel of the
// same width in mont.cpp — the differential suites in
// tests/test_dispatch.cpp pin that equivalence.
//
// The entry points exist for N = 4 and 8 only. On targets without the
// kernel (not x86-64 GCC/Clang), compiled() returns false and they must not
// be called.

#include <cstddef>
#include <cstdint>

namespace hcpp::mp::mulx {

// True when this TU holds the asm kernels. Callers must additionally check
// the runtime CPU flags before dispatching here.
bool compiled() noexcept;

// Montgomery product r = a·b·R^{-1} mod m (CIOS) and square r = a²·R^{-1}
// mod m (triangle + diagonal, then one REDC), for a, b < m; r may alias.
template <size_t N>
void mul(uint64_t* r, const uint64_t* a, const uint64_t* b, const uint64_t* m,
         uint64_t n0inv) noexcept;
template <size_t N>
void sqr(uint64_t* r, const uint64_t* a, const uint64_t* m,
         uint64_t n0inv) noexcept;

// r = a + b mod m and r = a − b mod m for a, b < m, branch-free; r may alias.
template <size_t N>
void add_mod(uint64_t* r, const uint64_t* a, const uint64_t* b,
             const uint64_t* m) noexcept;
template <size_t N>
void sub_mod(uint64_t* r, const uint64_t* a, const uint64_t* b,
             const uint64_t* m) noexcept;

// F_{p^2} = F_m[i]/(i^2+1) product and square of Montgomery residues < m.
// The product is lazily reduced like the portable one: three wide products
// (Karatsuba) and two REDCs, both channels kept non-negative by the bias
// mm2 = 2m² (2N + 1 limbs). A REDC of a channel < 3m² ends in `subs`
// = ⌈3m/R⌉ (or one more) branch-free conditional subtractions. The square
// is two CIOS products. Outputs are fully reduced; every input is read
// before an output is written, so they may alias.
template <size_t N>
void fp2_mul(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
             const uint64_t* ai, const uint64_t* br, const uint64_t* bi,
             const uint64_t* m, uint64_t n0inv, const uint64_t* mm2,
             uint64_t subs) noexcept;
template <size_t N>
void fp2_sqr(uint64_t* c_re, uint64_t* c_im, const uint64_t* ar,
             const uint64_t* ai, const uint64_t* m, uint64_t n0inv) noexcept;

// The ladder of MontCtx::lucas for the `bits`-bit exponent e, V_0 = two.
template <size_t N>
void lucas(uint64_t* lo, uint64_t* hi, const uint64_t* v1, const uint64_t* two,
           const uint64_t* e, size_t bits, const uint64_t* m,
           uint64_t n0inv) noexcept;

}  // namespace hcpp::mp::mulx
