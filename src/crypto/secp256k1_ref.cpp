#include "crypto/secp256k1_ref.h"

#include <stdexcept>

namespace rockfs::crypto::detail {

namespace {

// p = 2^256 - kC, kC = 2^32 + 977.
const Uint256 kC(0x1000003D1ULL);

// Reduction modulo p: t = high*2^256 + low === high*kC + low (mod p).
Uint256 fe_reduce(const Uint512& t) {
  const Uint256& p = curve_p();
  Uint512 acc = t;
  // Two folds bring the value under ~2^257, then conditional subtractions finish.
  for (int round = 0; round < 2; ++round) {
    const Uint256 high = acc.high();
    const Uint256 low = acc.low();
    if (high.is_zero()) break;
    const Uint512 folded = mul_wide(high, kC);
    // acc = folded + low.
    Uint512 sum{};
    std::uint64_t carry = 0;
    for (int i = 0; i < 8; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const unsigned __int128 s =
          static_cast<unsigned __int128>(folded.limb[idx]) +
          (i < 4 ? low.limb[idx] : 0) + carry;
      sum.limb[idx] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    acc = sum;
  }
  // After two folds the high part is at most 1; one more scalar fold if needed.
  Uint256 r = acc.low();
  if (!acc.high().is_zero()) {
    // acc.high() can only be a tiny value; fold it as high*kC.
    const Uint512 fold2 = mul_wide(acc.high(), kC);
    Uint256 add = fold2.low();
    Uint256 s;
    if (add_with_carry(r, add, s) != 0) {
      // Wrapped past 2^256: add kC once more (2^256 === kC mod p).
      Uint256 t2;
      add_with_carry(s, kC, t2);
      s = t2;
    }
    r = s;
  }
  while (r >= p) {
    Uint256 t2;
    sub_with_borrow(r, p, t2);
    r = t2;
  }
  return r;
}

// Jacobian coordinates: (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
struct Jac {
  Uint256 x;
  Uint256 y;
  Uint256 z;
  bool infinity = true;
};

Jac to_jac(const Point& p) {
  if (p.infinity) return {};
  return {p.x, p.y, Uint256(1), false};
}

Point to_affine(const Jac& j) {
  if (j.infinity) return {};
  const Uint256 zi = ref_fe_inv(j.z);
  const Uint256 zi2 = ref_fe_mul(zi, zi);
  const Uint256 zi3 = ref_fe_mul(zi2, zi);
  return {ref_fe_mul(j.x, zi2), ref_fe_mul(j.y, zi3), false};
}

Jac jac_double(const Jac& p) {
  if (p.infinity || p.y.is_zero()) return {};
  const Uint256 y2 = ref_fe_mul(p.y, p.y);
  const Uint256 s = ref_fe_mul(ref_fe_mul(Uint256(4), p.x), y2);
  const Uint256 m = ref_fe_mul(Uint256(3), ref_fe_mul(p.x, p.x));  // a == 0 on secp256k1
  Uint256 x3 = ref_fe_sub(ref_fe_mul(m, m), ref_fe_add(s, s));
  const Uint256 y4 = ref_fe_mul(y2, y2);
  Uint256 y3 = ref_fe_sub(ref_fe_mul(m, ref_fe_sub(s, x3)), ref_fe_mul(Uint256(8), y4));
  Uint256 z3 = ref_fe_mul(ref_fe_add(p.y, p.y), p.z);
  return {x3, y3, z3, false};
}

Jac jac_add(const Jac& p, const Jac& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  const Uint256 z1z1 = ref_fe_mul(p.z, p.z);
  const Uint256 z2z2 = ref_fe_mul(q.z, q.z);
  const Uint256 u1 = ref_fe_mul(p.x, z2z2);
  const Uint256 u2 = ref_fe_mul(q.x, z1z1);
  const Uint256 s1 = ref_fe_mul(p.y, ref_fe_mul(z2z2, q.z));
  const Uint256 s2 = ref_fe_mul(q.y, ref_fe_mul(z1z1, p.z));
  if (u1 == u2) {
    if (s1 == s2) return jac_double(p);
    return {};  // P + (-P) = O
  }
  const Uint256 h = ref_fe_sub(u2, u1);
  const Uint256 r = ref_fe_sub(s2, s1);
  const Uint256 h2 = ref_fe_mul(h, h);
  const Uint256 h3 = ref_fe_mul(h2, h);
  const Uint256 u1h2 = ref_fe_mul(u1, h2);
  Uint256 x3 = ref_fe_sub(ref_fe_sub(ref_fe_mul(r, r), h3), ref_fe_add(u1h2, u1h2));
  Uint256 y3 = ref_fe_sub(ref_fe_mul(r, ref_fe_sub(u1h2, x3)), ref_fe_mul(s1, h3));
  Uint256 z3 = ref_fe_mul(h, ref_fe_mul(p.z, q.z));
  return {x3, y3, z3, false};
}

}  // namespace

Uint256 ref_fe_add(const Uint256& a, const Uint256& b) { return add_mod(a, b, curve_p()); }
Uint256 ref_fe_sub(const Uint256& a, const Uint256& b) { return sub_mod(a, b, curve_p()); }
Uint256 ref_fe_mul(const Uint256& a, const Uint256& b) { return fe_reduce(mul_wide(a, b)); }

Uint256 ref_fe_inv(const Uint256& a) {
  if (a.is_zero()) throw std::invalid_argument("fe_inv: zero");
  // Fermat: a^(p-2) by square-and-multiply.
  Uint256 e;
  sub_with_borrow(curve_p(), Uint256(2), e);
  Uint256 result(1);
  Uint256 acc = a;
  const unsigned nbits = e.bit_length();
  for (unsigned i = 0; i < nbits; ++i) {
    if (e.bit(i)) result = ref_fe_mul(result, acc);
    acc = ref_fe_mul(acc, acc);
  }
  return result;
}

Point ref_point_add(const Point& a, const Point& b) {
  return to_affine(jac_add(to_jac(a), to_jac(b)));
}

Point ref_point_double(const Point& a) { return to_affine(jac_double(to_jac(a))); }

Point ref_scalar_mul(const Uint256& k, const Point& p) {
  if (p.infinity || k.is_zero()) return {};
  Jac acc{};  // identity
  const Jac base = to_jac(p);
  const unsigned nbits = k.bit_length();
  for (int i = static_cast<int>(nbits) - 1; i >= 0; --i) {
    acc = jac_double(acc);
    if (k.bit(static_cast<unsigned>(i))) acc = jac_add(acc, base);
  }
  return to_affine(acc);
}

Point ref_scalar_mul_base(const Uint256& k) { return ref_scalar_mul(k, generator()); }

}  // namespace rockfs::crypto::detail
