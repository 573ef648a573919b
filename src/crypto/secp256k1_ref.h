// Internal: the reference secp256k1 group law and Schnorr check that the
// fast path in secp256k1.cpp / signature.cpp replaced. Not part of the crypto
// API; the property tests include it to compare the fast path with it, as
// they compare the dispatched AES/SHA kernels with the portable ones.
//
// The reference is the straightforward code: field elements reduced through
// the generic 512-bit product (mul_wide + fold), additions through the
// generic add_mod/sub_mod, Fermat inversion by square-and-multiply, Jacobian
// double/add, double-and-add scalar multiplication with one inversion per
// affine result, and Schnorr verify as s*G == R + e*P over two full
// multiplications.
#pragma once

#include "common/bytes.h"
#include "crypto/secp256k1.h"

namespace rockfs::crypto::detail {

Uint256 ref_fe_add(const Uint256& a, const Uint256& b);
Uint256 ref_fe_sub(const Uint256& a, const Uint256& b);
Uint256 ref_fe_mul(const Uint256& a, const Uint256& b);
Uint256 ref_fe_inv(const Uint256& a);

Point ref_point_add(const Point& a, const Point& b);
Point ref_point_double(const Point& a);
/// k*P by MSB-first double-and-add over every bit of k.
Point ref_scalar_mul(const Uint256& k, const Point& p);
Point ref_scalar_mul_base(const Uint256& k);

/// The reference Schnorr verify (defined in signature.cpp, next to the
/// challenge it shares with crypto::verify).
bool ref_verify(const Point& public_key, BytesView message, BytesView signature);

}  // namespace rockfs::crypto::detail
