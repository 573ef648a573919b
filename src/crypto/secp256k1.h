// The secp256k1 elliptic-curve group (y^2 = x^3 + 7 over F_p) with Jacobian
// arithmetic: a dedicated mod-p field, a fixed-base table for k*G and
// Strauss–Shamir wNAF joint multiplication (crypto/secp256k1_ref.h keeps the
// double-and-add reference the tests compare it with). Used for asymmetric keys (Table 1 of the paper), Schnorr
// signatures (crypto/signature.*) and the PVSS scheme (secretshare/pvss.*).
// Not constant-time: this is a research reproduction, not a wallet.
#pragma once

#include "common/bytes.h"
#include "crypto/bigint.h"

namespace rockfs::crypto {

/// The field prime p = 2^256 - 2^32 - 977.
const Uint256& curve_p();
/// The (prime) group order n.
const Uint256& curve_n();

/// Affine point; `infinity` true means the identity element.
struct Point {
  Uint256 x;
  Uint256 y;
  bool infinity = true;

  bool operator==(const Point&) const = default;
};

/// The standard generator G.
const Point& generator();

/// Group law.
Point point_add(const Point& a, const Point& b);
Point point_double(const Point& a);
/// k*P (k taken mod n) by width-5 wNAF; one inversion for the affine result.
Point scalar_mul(const Uint256& k, const Point& p);
/// k*G from the precomputed fixed-base table.
Point scalar_mul_base(const Uint256& k);
/// a*P + b*Q in one joint multiplication (one chain of doublings).
Point scalar_mul_add(const Uint256& a, const Point& p, const Uint256& b, const Point& q);
/// Whether a*P + b*Q == r, decided in Jacobian coordinates with no inversion.
bool scalar_mul_add_equals(const Uint256& a, const Point& p, const Uint256& b,
                           const Point& q, const Point& r);
Point point_negate(const Point& a);

/// Whether the point satisfies the curve equation (identity counts as valid).
bool on_curve(const Point& p);

/// Uncompressed 65-byte encoding: 0x04 || x || y; identity encodes as a single 0x00.
Bytes point_encode(const Point& p);
/// Inverse of point_encode; throws std::invalid_argument on malformed or off-curve input.
Point point_decode(BytesView b);

// Field helpers exposed for tests and PVSS.
Uint256 fe_add(const Uint256& a, const Uint256& b);
Uint256 fe_sub(const Uint256& a, const Uint256& b);
Uint256 fe_mul(const Uint256& a, const Uint256& b);
Uint256 fe_inv(const Uint256& a);

/// Scalar arithmetic mod the group order n.
Uint256 scalar_add(const Uint256& a, const Uint256& b);
Uint256 scalar_sub(const Uint256& a, const Uint256& b);
Uint256 scalar_mul_mod_n(const Uint256& a, const Uint256& b);
Uint256 scalar_inv(const Uint256& a);
/// Reduces arbitrary 32 bytes to a scalar in [0, n).
Uint256 scalar_from_bytes(BytesView b32);

}  // namespace rockfs::crypto
