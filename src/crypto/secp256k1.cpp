#include "crypto/secp256k1.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace rockfs::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

const Uint256 kP = Uint256::from_hex(
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
const Uint256 kN = Uint256::from_hex(
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
const Uint256 kGx = Uint256::from_hex(
    "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
const Uint256 kGy = Uint256::from_hex(
    "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");

// ---------------------------------------------------------------- F_p
//
// Elements are kept canonical, in [0, p). p = 2^256 - kFold, so
// 2^256 === kFold (mod p) and every reduction is a fold by kFold.

constexpr u64 kFold = 0x1000003D1ULL;

// Add and subtract with carry. GCC turns a chain of these into adc/sbb; it
// does not do so for the same chain written in unsigned __int128 (3x slower).
inline u64 addc(u64 a, u64 b, unsigned char& carry) {
#if defined(__x86_64__)
  unsigned long long out;
  carry = _addcarry_u64(carry, a, b, &out);
  return out;
#else
  const u128 t = static_cast<u128>(a) + b + carry;
  carry = static_cast<unsigned char>(t >> 64);
  return static_cast<u64>(t);
#endif
}

inline u64 subb(u64 a, u64 b, unsigned char& borrow) {
#if defined(__x86_64__)
  unsigned long long out;
  borrow = _subborrow_u64(borrow, a, b, &out);
  return out;
#else
  const u128 t = static_cast<u128>(a) - b - borrow;
  borrow = static_cast<unsigned char>((t >> 64) & 1);
  return static_cast<u64>(t);
#endif
}

// r + carry*2^256, known to be below 2p, reduced into [0, p): the value is at
// least p exactly when adding kFold carries out of 2^256 (or carry is set),
// and then value - p is r + kFold mod 2^256. Branch-free: which way it goes
// is a coin flip for fadd, so a branch would mispredict half the time.
inline Uint256 sub_p_if_needed(const Uint256& r, unsigned char carry) {
  unsigned char c = 0;
  u64 t[4];
  t[0] = addc(r.limb[0], kFold, c);
  t[1] = addc(r.limb[1], 0, c);
  t[2] = addc(r.limb[2], 0, c);
  t[3] = addc(r.limb[3], 0, c);
  const u64 take_t = u64{0} - static_cast<u64>(carry | c);
  // Written out: GCC's loop vectorizer turns a 4-limb loop into SSE code that
  // reloads just-stored limbs through the stack, which stalls and made the
  // whole group law ~2.5x slower.
  return Uint256::from_limbs((t[0] & take_t) | (r.limb[0] & ~take_t),
                             (t[1] & take_t) | (r.limb[1] & ~take_t),
                             (t[2] & take_t) | (r.limb[2] & ~take_t),
                             (t[3] & take_t) | (r.limb[3] & ~take_t));
}

// t mod p for a 512-bit t (little-endian limbs).
inline Uint256 reduce512(const u64 (&t)[8]) {
  // high*2^256 + low === high*kFold + low, which is below 2^290.
  u64 h[5];
  u64 carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 p = static_cast<u128>(t[4 + i]) * kFold + carry;
    h[i] = static_cast<u64>(p);
    carry = static_cast<u64>(p >> 64);
  }
  h[4] = carry;
  Uint256 r;
  unsigned char c = 0;
  for (std::size_t i = 0; i < 4; ++i) r.limb[i] = addc(t[i], h[i], c);
  // Fold the < 2^34 overflow the same way; it adds < 2^68.
  const u128 f = static_cast<u128>(h[4] + c) * kFold;
  c = 0;
  r.limb[0] = addc(r.limb[0], static_cast<u64>(f), c);
  r.limb[1] = addc(r.limb[1], static_cast<u64>(f >> 64), c);
  r.limb[2] = addc(r.limb[2], 0, c);
  r.limb[3] = addc(r.limb[3], 0, c);
  // A carry out leaves r < 2^68, so r + 2^256 is below 2p.
  return sub_p_if_needed(r, c);
}

inline Uint256 fadd(const Uint256& a, const Uint256& b) {
  Uint256 s;
  unsigned char c = 0;
  for (std::size_t i = 0; i < 4; ++i) s.limb[i] = addc(a.limb[i], b.limb[i], c);
  return sub_p_if_needed(s, c);
}

// r = a - b mod 2^256; returns the borrow out.
inline unsigned char sub256(const Uint256& a, const Uint256& b, Uint256& r) {
  unsigned char borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) r.limb[i] = subb(a.limb[i], b.limb[i], borrow);
  return borrow;
}

inline Uint256 fsub(const Uint256& a, const Uint256& b) {
  Uint256 d;
  const u64 borrow = sub256(a, b, d);
  // On a borrow d = a - b + 2^256, and a - b + p = d - kFold cannot
  // underflow. Branch-free, as in sub_p_if_needed.
  Uint256 r;
  sub256(d, Uint256(kFold & (u64{0} - borrow)), r);
  return r;
}

inline Uint256 fneg(const Uint256& a) { return fsub(Uint256(), a); }

inline Uint256 fmul(const Uint256& a, const Uint256& b) {
  u64 t[8] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a.limb[i]) * b.limb[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    t[i + 4] = carry;
  }
  return reduce512(t);
}

inline Uint256 fsqr(const Uint256& a) {
  // The six cross products once, doubled, plus the four squares.
  u64 t[8] = {};
  for (std::size_t i = 0; i < 3; ++i) {
    u64 carry = 0;
    for (std::size_t j = i + 1; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a.limb[i]) * a.limb[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    t[i + 4] = carry;
  }
  // Double the cross products (written out, as in sub_p_if_needed).
  t[7] = t[6] >> 63;
  t[6] = (t[6] << 1) | (t[5] >> 63);
  t[5] = (t[5] << 1) | (t[4] >> 63);
  t[4] = (t[4] << 1) | (t[3] >> 63);
  t[3] = (t[3] << 1) | (t[2] >> 63);
  t[2] = (t[2] << 1) | (t[1] >> 63);
  t[1] <<= 1;
  unsigned char c = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 sq = static_cast<u128>(a.limb[i]) * a.limb[i];
    t[2 * i] = addc(t[2 * i], static_cast<u64>(sq), c);
    t[2 * i + 1] = addc(t[2 * i + 1], static_cast<u64>(sq >> 64), c);
  }
  return reduce512(t);
}

inline Uint256 fsqr_n(Uint256 a, int n) {
  for (int i = 0; i < n; ++i) a = fsqr(a);
  return a;
}

// a^(p-2). The bits of p-2 are, from the top, 223 ones, a zero, 22 ones,
// 0000, 1, 0, 11, 0, 1; x_k = a^(2^k - 1) builds each run of ones
// (255 squarings, 15 multiplications).
Uint256 finv(const Uint256& a) {
  const Uint256 x2 = fmul(fsqr(a), a);
  const Uint256 x3 = fmul(fsqr(x2), a);
  const Uint256 x6 = fmul(fsqr_n(x3, 3), x3);
  const Uint256 x9 = fmul(fsqr_n(x6, 3), x3);
  const Uint256 x11 = fmul(fsqr_n(x9, 2), x2);
  const Uint256 x22 = fmul(fsqr_n(x11, 11), x11);
  const Uint256 x44 = fmul(fsqr_n(x22, 22), x22);
  const Uint256 x88 = fmul(fsqr_n(x44, 44), x44);
  const Uint256 x176 = fmul(fsqr_n(x88, 88), x88);
  const Uint256 x220 = fmul(fsqr_n(x176, 44), x44);
  const Uint256 x223 = fmul(fsqr_n(x220, 3), x3);
  Uint256 t = fmul(fsqr_n(x223, 23), x22);
  t = fmul(fsqr_n(t, 5), a);
  t = fmul(fsqr_n(t, 3), x2);
  return fmul(fsqr_n(t, 2), a);
}

// ---------------------------------------------------------------- the group

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

// The one inversion of an affine result.
Point to_affine(const Jac& j) {
  if (j.infinity) return {};
  const Uint256 zi = finv(j.z);
  const Uint256 zi2 = fsqr(zi);
  return {fmul(j.x, zi2), fmul(j.y, fmul(zi2, zi)), false};
}

// Affine forms of many points for one inversion (Montgomery's trick).
std::vector<Point> batch_to_affine(const std::vector<Jac>& in) {
  std::vector<Uint256> prefix(in.size());
  Uint256 acc(1);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i].infinity) continue;
    prefix[i] = acc;
    acc = fmul(acc, in[i].z);
  }
  Uint256 inv = finv(acc);  // 1/(z_0 z_1 ... z_{m-1})
  std::vector<Point> out(in.size());
  for (std::size_t i = in.size(); i-- > 0;) {
    if (in[i].infinity) continue;
    const Uint256 zi = fmul(inv, prefix[i]);
    inv = fmul(inv, in[i].z);
    const Uint256 zi2 = fsqr(zi);
    out[i] = {fmul(in[i].x, zi2), fmul(in[i].y, fmul(zi2, zi)), false};
  }
  return out;
}

// dbl-2009-l for a = 0: 2M + 5S.
Jac jac_double(const Jac& p) {
  if (p.infinity || p.y.is_zero()) return {};
  const Uint256 a = fsqr(p.x);
  const Uint256 b = fsqr(p.y);
  const Uint256 c = fsqr(b);
  Uint256 d = fsub(fsub(fsqr(fadd(p.x, b)), a), c);
  d = fadd(d, d);
  const Uint256 e = fadd(fadd(a, a), a);
  const Uint256 x3 = fsub(fsqr(e), fadd(d, d));
  Uint256 c8 = fadd(c, c);
  c8 = fadd(c8, c8);
  c8 = fadd(c8, c8);
  const Uint256 y3 = fsub(fmul(e, fsub(d, x3)), c8);
  const Uint256 yz = fmul(p.y, p.z);
  return {x3, y3, fadd(yz, yz), false};
}

// The sum from U1 = X1*Z2^2, S1 = Y1*Z2^3 (and the same for the other
// point), shared by the full and the mixed addition.
Jac add_from(const Jac& p, const Uint256& u1, const Uint256& s1, const Uint256& u2,
             const Uint256& s2, const Uint256& z1z2) {
  const Uint256 h = fsub(u2, u1);
  const Uint256 r = fsub(s2, s1);
  if (h.is_zero()) {
    if (r.is_zero()) return jac_double(p);
    return {};  // P + (-P) = O
  }
  const Uint256 h2 = fsqr(h);
  const Uint256 h3 = fmul(h2, h);
  const Uint256 u1h2 = fmul(u1, h2);
  const Uint256 x3 = fsub(fsub(fsqr(r), h3), fadd(u1h2, u1h2));
  const Uint256 y3 = fsub(fmul(r, fsub(u1h2, x3)), fmul(s1, h3));
  return {x3, y3, fmul(h, z1z2), false};
}

Jac jac_add(const Jac& p, const Jac& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  const Uint256 z1z1 = fsqr(p.z);
  const Uint256 z2z2 = fsqr(q.z);
  return add_from(p, fmul(p.x, z2z2), fmul(p.y, fmul(z2z2, q.z)), fmul(q.x, z1z1),
                  fmul(q.y, fmul(z1z1, p.z)), fmul(p.z, q.z));
}

// Jacobian + affine (Z2 = 1): 8M + 3S.
Jac jac_add_affine(const Jac& p, const Point& q) {
  if (q.infinity) return p;
  if (p.infinity) return to_jac(q);
  const Uint256 z1z1 = fsqr(p.z);
  return add_from(p, p.x, p.y, fmul(q.x, z1z1), fmul(q.y, fmul(z1z1, p.z)), p.z);
}

// k mod n for any k < 2^256 (< 2n).
Uint256 reduce_scalar(const Uint256& k) {
  if (k < kN) return k;
  Uint256 r;
  sub256(k, kN, r);
  return r;
}

// t mod n for a 512-bit t. 2^256 === 2^256 - n (mod n), a 129-bit constant,
// so folding the high half shrinks t to below 2^385, 2^259 and then
// 2^256 + 2^132; one subtraction of n finishes.
Uint256 reduce512_n(const Uint512& t) {
  static const Uint256 fold = [] {
    Uint256 c;
    sub256(Uint256(), kN, c);
    return c;
  }();
  Uint512 acc = t;
  while (!acc.high().is_zero()) {
    const Uint512 folded = mul_wide(acc.high(), fold);
    unsigned char c = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      acc.limb[i] = addc(folded.limb[i], i < 4 ? acc.limb[i] : 0, c);
    }
  }
  return reduce_scalar(acc.low());
}

// ---------------------------------------------------------------- G's tables

// Fixed-base table: kCombEntries affine multiples d * 16^w * G (d = 1..15)
// for each of the 64 four-bit windows of a scalar, so k*G is at most 64
// mixed additions and no doubling.
constexpr std::size_t kCombWindows = 64;
constexpr std::size_t kCombEntries = 15;
// wNAF width for G inside a joint multiplication, and its odd multiples
// G, 3G, ..., 127G.
constexpr int kWindowG = 8;
constexpr std::size_t kOddG = std::size_t{1} << (kWindowG - 2);
// wNAF width for a variable point: P, 3P, ..., 15P, built per call.
constexpr int kWindowP = 5;
constexpr std::size_t kOddP = std::size_t{1} << (kWindowP - 2);

struct BaseTables {
  std::vector<Point> comb;  // [window * kCombEntries + d - 1]
  std::vector<Point> odd;   // [(d - 1) / 2] = d * G
};

// Both tables in Jacobian form, then one batch inversion.
BaseTables build_base_tables() {
  std::vector<Jac> jac;
  jac.reserve(kCombWindows * kCombEntries + kOddG);
  Jac base = to_jac(Point{kGx, kGy, false});
  for (std::size_t w = 0; w < kCombWindows; ++w) {
    Jac multiple = base;
    jac.push_back(multiple);
    for (std::size_t d = 2; d <= kCombEntries; ++d) {
      multiple = jac_add(multiple, base);
      jac.push_back(multiple);
    }
    base = jac_add(multiple, base);  // 16 * base
  }
  const Jac g = to_jac(Point{kGx, kGy, false});
  const Jac g2 = jac_double(g);
  Jac odd = g;
  for (std::size_t i = 0; i < kOddG; ++i) {
    jac.push_back(odd);
    odd = jac_add(odd, g2);
  }
  std::vector<Point> affine = batch_to_affine(jac);
  BaseTables t;
  const auto split = affine.begin() + static_cast<std::ptrdiff_t>(kCombWindows * kCombEntries);
  t.comb.assign(affine.begin(), split);
  t.odd.assign(split, affine.end());
  return t;
}

const BaseTables& base_tables() {
  static const BaseTables tables = build_base_tables();
  return tables;
}

// ---------------------------------------------------------------- joint multiplication

// Width-w NAF of k < n: digit i is zero or odd with |digit| < 2^(w-1), and
// k = sum digit_i * 2^i. Returns the number of digits.
int wnaf(const Uint256& k, int w, std::array<std::int8_t, 257>& digits) {
  u64 d[5] = {k.limb[0], k.limb[1], k.limb[2], k.limb[3], 0};
  const u64 mask = (u64{1} << w) - 1;
  const u64 half = u64{1} << (w - 1);
  int len = 0;
  for (int i = 0; (d[0] | d[1] | d[2] | d[3] | d[4]) != 0; ++i) {
    int digit = 0;
    if (d[0] & 1) {
      const u64 low = d[0] & mask;
      d[0] -= low;  // clears the low w bits
      if (low < half) {
        digit = static_cast<int>(low);
      } else {
        // low - 2^w: take 2^w back from the higher bits.
        digit = static_cast<int>(low) - (1 << w);
        u128 t = static_cast<u128>(d[0]) + (u64{1} << w);
        d[0] = static_cast<u64>(t);
        for (std::size_t j = 1; j < 5 && (t >> 64) != 0; ++j) {
          t = static_cast<u128>(d[j]) + 1;
          d[j] = static_cast<u64>(t);
        }
      }
    }
    digits[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(digit);
    len = i + 1;
    for (std::size_t j = 0; j < 4; ++j) d[j] = (d[j] >> 1) | (d[j + 1] << 63);
    d[4] >>= 1;
  }
  return len;
}

// One term k*P of a joint multiplication: the wNAF digits of k and the odd
// multiples of P they index, affine (G's static table) or Jacobian (built per
// call for any other point).
struct Term {
  std::array<std::int8_t, 257> digits{};
  int len = 0;
  const Point* affine = nullptr;
  std::array<Jac, kOddP> jac;
};

// Fills `t` for k*p; false when the term is the identity.
bool make_term(const Uint256& k, const Point& p, Term& t) {
  const Uint256 kr = reduce_scalar(k);
  if (p.infinity || kr.is_zero()) return false;
  if (p == generator()) {
    t.affine = base_tables().odd.data();
    t.len = wnaf(kr, kWindowG, t.digits);
    return true;
  }
  const Jac base = to_jac(p);
  const Jac twice = jac_double(base);
  t.jac[0] = base;
  for (std::size_t i = 1; i < kOddP; ++i) t.jac[i] = jac_add(t.jac[i - 1], twice);
  t.len = wnaf(kr, kWindowP, t.digits);
  return true;
}

// a*P + b*Q by Strauss–Shamir: one shared chain of doublings.
Jac joint_mul(const Uint256& a, const Point& p, const Uint256& b, const Point& q) {
  Term terms[2];
  std::size_t count = 0;
  if (make_term(a, p, terms[count])) ++count;
  if (make_term(b, q, terms[count])) ++count;
  int top = 0;
  for (std::size_t i = 0; i < count; ++i) top = std::max(top, terms[i].len);
  Jac acc;
  for (int bit = top - 1; bit >= 0; --bit) {
    acc = jac_double(acc);
    for (std::size_t i = 0; i < count; ++i) {
      const Term& t = terms[i];
      const int digit = t.digits[static_cast<std::size_t>(bit)];
      if (digit == 0) continue;
      const std::size_t idx = static_cast<std::size_t>((digit > 0 ? digit : -digit) - 1) / 2;
      if (t.affine != nullptr) {
        const Point& m = t.affine[idx];
        acc = jac_add_affine(acc, digit > 0 ? m : Point{m.x, fneg(m.y), false});
      } else {
        const Jac& m = t.jac[idx];
        acc = jac_add(acc, digit > 0 ? m : Jac{m.x, fneg(m.y), m.z, false});
      }
    }
  }
  return acc;
}

}  // namespace

const Uint256& curve_p() { return kP; }
const Uint256& curve_n() { return kN; }

Uint256 fe_add(const Uint256& a, const Uint256& b) { return fadd(a, b); }
Uint256 fe_sub(const Uint256& a, const Uint256& b) { return fsub(a, b); }
Uint256 fe_mul(const Uint256& a, const Uint256& b) { return fmul(a, b); }
Uint256 fe_inv(const Uint256& a) {
  if (a.is_zero()) throw std::invalid_argument("fe_inv: zero");
  return finv(a);
}

Uint256 scalar_add(const Uint256& a, const Uint256& b) { return add_mod(a, b, kN); }
Uint256 scalar_sub(const Uint256& a, const Uint256& b) { return sub_mod(a, b, kN); }
Uint256 scalar_mul_mod_n(const Uint256& a, const Uint256& b) {
  return reduce512_n(mul_wide(a, b));
}
Uint256 scalar_inv(const Uint256& a) {
  const Uint256 base = reduce_scalar(a);
  if (base.is_zero()) throw std::invalid_argument("scalar_inv: zero has no inverse");
  // Fermat: a^(n-2) by square-and-multiply.
  Uint256 e;
  sub256(kN, Uint256(2), e);
  Uint256 result(1);
  Uint256 acc = base;
  for (unsigned i = 0; i < 256; ++i) {
    if (e.bit(i)) result = scalar_mul_mod_n(result, acc);
    acc = scalar_mul_mod_n(acc, acc);
  }
  return result;
}
Uint256 scalar_from_bytes(BytesView b32) {
  return reduce_scalar(Uint256::from_bytes_be(b32));
}

const Point& generator() {
  static const Point g{kGx, kGy, false};
  return g;
}

Point point_add(const Point& a, const Point& b) {
  return to_affine(jac_add_affine(to_jac(a), b));
}

Point point_double(const Point& a) { return to_affine(jac_double(to_jac(a))); }

Point scalar_mul(const Uint256& k, const Point& p) {
  if (p == generator()) return scalar_mul_base(k);
  return to_affine(joint_mul(k, p, Uint256(), Point{}));
}

Point scalar_mul_base(const Uint256& k) {
  const Uint256 kr = reduce_scalar(k);
  const std::vector<Point>& comb = base_tables().comb;
  Jac acc;
  for (std::size_t w = 0; w < kCombWindows; ++w) {
    const std::size_t d = (kr.limb[w / 16] >> (4 * (w % 16))) & 0xF;
    if (d != 0) acc = jac_add_affine(acc, comb[w * kCombEntries + d - 1]);
  }
  return to_affine(acc);
}

Point scalar_mul_add(const Uint256& a, const Point& p, const Uint256& b, const Point& q) {
  return to_affine(joint_mul(a, p, b, q));
}

bool scalar_mul_add_equals(const Uint256& a, const Point& p, const Uint256& b, const Point& q,
                           const Point& r) {
  const Jac j = joint_mul(a, p, b, q);
  if (j.infinity || r.infinity) return j.infinity && r.infinity;
  // x = X/Z^2 and y = Y/Z^3, compared without the inversion.
  const Uint256 z2 = fsqr(j.z);
  return j.x == fmul(r.x, z2) && j.y == fmul(r.y, fmul(z2, j.z));
}

Point point_negate(const Point& a) {
  if (a.infinity) return a;
  return {a.x, fneg(a.y), false};
}

bool on_curve(const Point& p) {
  if (p.infinity) return true;
  if (p.x >= kP || p.y >= kP) return false;
  const Uint256 lhs = fsqr(p.y);
  const Uint256 rhs = fadd(fmul(fsqr(p.x), p.x), Uint256(7));
  return lhs == rhs;
}

Bytes point_encode(const Point& p) {
  if (p.infinity) return Bytes{0x00};
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  append(out, p.x.to_bytes_be());
  append(out, p.y.to_bytes_be());
  return out;
}

Point point_decode(BytesView b) {
  if (b.size() == 1 && b[0] == 0x00) return {};
  if (b.size() != 65 || b[0] != 0x04) {
    throw std::invalid_argument("point_decode: malformed encoding");
  }
  Point p{Uint256::from_bytes_be(b.subspan(1, 32)), Uint256::from_bytes_be(b.subspan(33, 32)),
          false};
  if (!on_curve(p)) throw std::invalid_argument("point_decode: not on curve");
  return p;
}

}  // namespace rockfs::crypto
