#include "crypto/ed25519.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "crypto/sha512.h"

namespace massbft {
namespace ed25519 {
namespace {

// ------------------------------------------------------------------ Field
// GF(2^255 - 19) in five 51-bit limbs. Products are accumulated in
// unsigned __int128; reduction folds the 2^255 overflow back in times 19.
// FeMul, FeSq and FeSub carry, leaving every limb below 2^51 + 2^18.
// FeAdd does not carry; the point formulas add at most three carried
// values before a FeMul, FeSq or FeSub consumes the sum, so every limb
// stays below 2^53 — inside both the multiply accumulators' headroom
// (~2^54 per limb) and FeSub's 4p offset.

using u64 = uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask = (u64{1} << 51) - 1;

struct Fe {
  u64 v[5];
};

constexpr Fe kFeZero = {{0, 0, 0, 0, 0}};
constexpr Fe kFeOne = {{1, 0, 0, 0, 0}};

void FeFromBytes(Fe* h, const uint8_t s[32]) {
  u64 limb[4];
  for (int i = 0; i < 4; ++i) {
    limb[i] = 0;
    for (int j = 0; j < 8; ++j)
      limb[i] |= static_cast<u64>(s[8 * i + j]) << (8 * j);
  }
  h->v[0] = limb[0] & kMask;
  h->v[1] = ((limb[0] >> 51) | (limb[1] << 13)) & kMask;
  h->v[2] = ((limb[1] >> 38) | (limb[2] << 26)) & kMask;
  h->v[3] = ((limb[2] >> 25) | (limb[3] << 39)) & kMask;
  h->v[4] = (limb[3] >> 12) & kMask;  // Drops bit 255 (the sign bit).
}

/// Canonical serialization: fully reduces into [0, p) first.
void FeToBytes(uint8_t s[32], const Fe& f) {
  u64 t[5] = {f.v[0], f.v[1], f.v[2], f.v[3], f.v[4]};
  // Two weak-carry passes bring every limb under 2^51 (+ epsilon on t0).
  for (int pass = 0; pass < 2; ++pass) {
    t[1] += t[0] >> 51;
    t[0] &= kMask;
    t[2] += t[1] >> 51;
    t[1] &= kMask;
    t[3] += t[2] >> 51;
    t[2] &= kMask;
    t[4] += t[3] >> 51;
    t[3] &= kMask;
    t[0] += 19 * (t[4] >> 51);
    t[4] &= kMask;
  }
  // Canonicalize: offset by 19 then by 2^255 - 19 - 19 so the subtraction
  // of p happens exactly when the value was >= p (curve25519-donna trick).
  t[0] += 19;
  t[1] += t[0] >> 51;
  t[0] &= kMask;
  t[2] += t[1] >> 51;
  t[1] &= kMask;
  t[3] += t[2] >> 51;
  t[2] &= kMask;
  t[4] += t[3] >> 51;
  t[3] &= kMask;
  t[0] += 19 * (t[4] >> 51);
  t[4] &= kMask;

  t[0] += (kMask + 1) - 19;
  t[1] += kMask;
  t[2] += kMask;
  t[3] += kMask;
  t[4] += kMask;
  t[1] += t[0] >> 51;
  t[0] &= kMask;
  t[2] += t[1] >> 51;
  t[1] &= kMask;
  t[3] += t[2] >> 51;
  t[2] &= kMask;
  t[4] += t[3] >> 51;
  t[3] &= kMask;
  t[4] &= kMask;  // Drop the 2^255 offset bit.

  u64 out[4];
  out[0] = t[0] | (t[1] << 51);
  out[1] = (t[1] >> 13) | (t[2] << 38);
  out[2] = (t[2] >> 26) | (t[3] << 25);
  out[3] = (t[3] >> 39) | (t[4] << 12);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 8; ++j)
      s[8 * i + j] = static_cast<uint8_t>(out[i] >> (8 * j));
}

/// One carry pass: limbs below 2^51, plus at most 19 * 2^13 on limb 0.
inline void FeWeakReduce(Fe* h) {
  h->v[1] += h->v[0] >> 51;
  h->v[0] &= kMask;
  h->v[2] += h->v[1] >> 51;
  h->v[1] &= kMask;
  h->v[3] += h->v[2] >> 51;
  h->v[2] &= kMask;
  h->v[4] += h->v[3] >> 51;
  h->v[3] &= kMask;
  h->v[0] += 19 * (h->v[4] >> 51);
  h->v[4] &= kMask;
}

/// h = f + g without carrying (see the limb bounds above).
inline void FeAdd(Fe* h, const Fe& f, const Fe& g) {
  for (int i = 0; i < 5; ++i) h->v[i] = f.v[i] + g.v[i];
}

/// h = f - g, computed as f + 4p - g so limbs never underflow (4p because
/// g's limbs may be just under 2^53).
inline void FeSub(Fe* h, const Fe& f, const Fe& g) {
  h->v[0] = f.v[0] + 0x1FFFFFFFFFFFB4u - g.v[0];
  h->v[1] = f.v[1] + 0x1FFFFFFFFFFFFCu - g.v[1];
  h->v[2] = f.v[2] + 0x1FFFFFFFFFFFFCu - g.v[2];
  h->v[3] = f.v[3] + 0x1FFFFFFFFFFFFCu - g.v[3];
  h->v[4] = f.v[4] + 0x1FFFFFFFFFFFFCu - g.v[4];
  FeWeakReduce(h);
}

inline void FeNeg(Fe* h, const Fe& f) { FeSub(h, kFeZero, f); }

/// f = g when `bit` is 1, unchanged when 0, without a branch on `bit`.
inline void FeCmov(Fe* f, const Fe& g, u64 bit) {
  const u64 mask = 0 - bit;
  for (int i = 0; i < 5; ++i) f->v[i] ^= mask & (f->v[i] ^ g.v[i]);
}

inline void FeCarry(Fe* h, u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  u64 c;
  u64 r0 = static_cast<u64>(t0) & kMask;
  c = static_cast<u64>(t0 >> 51);
  t1 += c;
  u64 r1 = static_cast<u64>(t1) & kMask;
  c = static_cast<u64>(t1 >> 51);
  t2 += c;
  u64 r2 = static_cast<u64>(t2) & kMask;
  c = static_cast<u64>(t2 >> 51);
  t3 += c;
  u64 r3 = static_cast<u64>(t3) & kMask;
  c = static_cast<u64>(t3 >> 51);
  t4 += c;
  u64 r4 = static_cast<u64>(t4) & kMask;
  c = static_cast<u64>(t4 >> 51);
  r0 += c * 19;
  c = r0 >> 51;
  r0 &= kMask;
  r1 += c;
  h->v[0] = r0;
  h->v[1] = r1;
  h->v[2] = r2;
  h->v[3] = r3;
  h->v[4] = r4;
}

inline void FeMul(Fe* h, const Fe& f, const Fe& g) {
  const u64 f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const u64 g0 = g.v[0], g1 = g.v[1], g2 = g.v[2], g3 = g.v[3], g4 = g.v[4];
  const u64 g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3,
            g4_19 = 19 * g4;
  u128 t0 = static_cast<u128>(f0) * g0 + static_cast<u128>(f1) * g4_19 +
            static_cast<u128>(f2) * g3_19 + static_cast<u128>(f3) * g2_19 +
            static_cast<u128>(f4) * g1_19;
  u128 t1 = static_cast<u128>(f0) * g1 + static_cast<u128>(f1) * g0 +
            static_cast<u128>(f2) * g4_19 + static_cast<u128>(f3) * g3_19 +
            static_cast<u128>(f4) * g2_19;
  u128 t2 = static_cast<u128>(f0) * g2 + static_cast<u128>(f1) * g1 +
            static_cast<u128>(f2) * g0 + static_cast<u128>(f3) * g4_19 +
            static_cast<u128>(f4) * g3_19;
  u128 t3 = static_cast<u128>(f0) * g3 + static_cast<u128>(f1) * g2 +
            static_cast<u128>(f2) * g1 + static_cast<u128>(f3) * g0 +
            static_cast<u128>(f4) * g4_19;
  u128 t4 = static_cast<u128>(f0) * g4 + static_cast<u128>(f1) * g3 +
            static_cast<u128>(f2) * g2 + static_cast<u128>(f3) * g1 +
            static_cast<u128>(f4) * g0;
  FeCarry(h, t0, t1, t2, t3, t4);
}

/// h = f^2: the 15 distinct limb products of FeMul's 25, with the
/// symmetric cross terms doubled once.
inline void FeSq(Fe* h, const Fe& f) {
  const u64 f0 = f.v[0], f1 = f.v[1], f2 = f.v[2], f3 = f.v[3], f4 = f.v[4];
  const u64 f0_2 = 2 * f0, f1_2 = 2 * f1;
  const u64 f1_38 = 38 * f1, f2_38 = 38 * f2, f3_38 = 38 * f3;
  const u64 f3_19 = 19 * f3, f4_19 = 19 * f4;
  u128 t0 = static_cast<u128>(f0) * f0 + static_cast<u128>(f1_38) * f4 +
            static_cast<u128>(f2_38) * f3;
  u128 t1 = static_cast<u128>(f0_2) * f1 + static_cast<u128>(f2_38) * f4 +
            static_cast<u128>(f3_19) * f3;
  u128 t2 = static_cast<u128>(f0_2) * f2 + static_cast<u128>(f1) * f1 +
            static_cast<u128>(f3_38) * f4;
  u128 t3 = static_cast<u128>(f0_2) * f3 + static_cast<u128>(f1_2) * f2 +
            static_cast<u128>(f4_19) * f4;
  u128 t4 = static_cast<u128>(f0_2) * f4 + static_cast<u128>(f1_2) * f3 +
            static_cast<u128>(f2) * f2;
  FeCarry(h, t0, t1, t2, t3, t4);
}

void FeSqN(Fe* h, const Fe& f, int n) {
  *h = f;
  for (int i = 0; i < n; ++i) FeSq(h, *h);
}

/// Shared ladder for the two exponentiations: returns z^(2^250 - 1) in
/// `t250` and z^11 in `t11` (enough to finish either exponent).
void FePowLadder(Fe* t250, Fe* t11, const Fe& z) {
  Fe z2, z9, z11, z31, t5, t10, t20, t40, t50, t100, t200, tmp;
  FeSq(&z2, z);               // z^2
  FeSqN(&tmp, z2, 2);         // z^8
  FeMul(&z9, tmp, z);         // z^9
  FeMul(&z11, z9, z2);        // z^11
  FeSq(&tmp, z11);            // z^22
  FeMul(&z31, tmp, z9);       // z^31 = z^(2^5 - 1)
  t5 = z31;
  FeSqN(&tmp, t5, 5);
  FeMul(&t10, tmp, t5);       // z^(2^10 - 1)
  FeSqN(&tmp, t10, 10);
  FeMul(&t20, tmp, t10);      // z^(2^20 - 1)
  FeSqN(&tmp, t20, 20);
  FeMul(&t40, tmp, t20);      // z^(2^40 - 1)
  FeSqN(&tmp, t40, 10);
  FeMul(&t50, tmp, t10);      // z^(2^50 - 1)
  FeSqN(&tmp, t50, 50);
  FeMul(&t100, tmp, t50);     // z^(2^100 - 1)
  FeSqN(&tmp, t100, 100);
  FeMul(&t200, tmp, t100);    // z^(2^200 - 1)
  FeSqN(&tmp, t200, 50);
  FeMul(t250, tmp, t50);      // z^(2^250 - 1)
  *t11 = z11;
}

/// h = z^(p-2) = z^(2^255 - 21): the inverse for z != 0.
void FeInvert(Fe* h, const Fe& z) {
  Fe t250, z11, tmp;
  FePowLadder(&t250, &z11, z);
  FeSqN(&tmp, t250, 5);  // z^(2^255 - 2^5)
  FeMul(h, tmp, z11);    // z^(2^255 - 21)
}

/// h = z^((p-5)/8) = z^(2^252 - 3): the square-root exponent.
void FePow22523(Fe* h, const Fe& z) {
  Fe t250, z11, tmp;
  FePowLadder(&t250, &z11, z);
  FeSqN(&tmp, t250, 2);  // z^(2^252 - 4)
  FeMul(h, tmp, z);      // z^(2^252 - 3)
}

bool FeIsZero(const Fe& f) {
  uint8_t s[32];
  FeToBytes(s, f);
  uint8_t acc = 0;
  for (uint8_t b : s) acc |= b;
  return acc == 0;
}

bool FeIsNegative(const Fe& f) {
  uint8_t s[32];
  FeToBytes(s, f);
  return (s[0] & 1) != 0;
}

bool FeEqual(const Fe& f, const Fe& g) {
  Fe diff;
  FeSub(&diff, f, g);
  return FeIsZero(diff);
}

// ------------------------------------------------------------- Constants
// Verified little-endian encodings (cross-checked against an independent
// reference; the RFC 8032 vector tests would fail on any bit error here).
constexpr uint8_t kDBytes[32] = {
    0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41,
    0x41, 0x4d, 0x0a, 0x70, 0x00, 0x98, 0xe8, 0x79, 0x77, 0x79, 0x40,
    0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52};
constexpr uint8_t kSqrtM1Bytes[32] = {
    0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f,
    0xad, 0x06, 0x18, 0x43, 0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00,
    0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f, 0x80, 0x24, 0x83, 0x2b};
/// Base point encoding: y = 4/5, x positive.
constexpr uint8_t kBaseBytes[32] = {
    0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
    0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
    0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66};
/// Group order L = 2^252 + 27742317777372353535851937790883648493,
/// little-endian bytes (for the TweetNaCl-style scalar reduction).
constexpr u64 kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                        0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                        0,    0,    0,    0,    0,    0,    0,    0,
                        0,    0,    0,    0,    0,    0,    0,    0x10};

/// Window widths of the verification recoding (DESIGN.md §17). The tables
/// of B and 2^128 B are static and those of -A and -2^128 A are built once
/// per key, so they afford 2^6 odd multiples each; each R_i builds its own
/// per check, where 2^3 entries is the cheapest total.
constexpr int kTableWindow = 8;
constexpr int kPointWindow = 5;
constexpr int kTableOddMultiples = 1 << (kTableWindow - 2);
constexpr int kPointOddMultiples = 1 << (kPointWindow - 2);

/// Verification splits every scalar k < 2^256 into k_lo + 2^128 k_hi, so
/// the shared doubling chain covers 128 bits, not 253. A width-w NAF of a
/// value below 2^128 has at most 129 digits.
constexpr int kHalfBytes = 16;
constexpr int kHalfDigits = 8 * kHalfBytes + 1;

// -------------------------------------------------------------- Points
// Twisted-Edwards coordinates (ref10 layout): P2 is projective (X:Y:Z),
// enough for doubling; P3 adds T = XY/Z, which addition needs; P1P1 is
// the intermediate "completed" form both operations produce; Cached is a
// precomputed addend (Y+X : Y-X : Z : 2dT) and Precomp its affine (Z = 1)
// form for the tables built once: the base point's and each key's.

struct P2 {
  Fe x, y, z;
};
struct P3 {
  Fe x, y, z, t;
};
struct P1P1 {
  Fe x, y, z, t;
};
struct Cached {
  Fe y_plus_x, y_minus_x, z, t2d;
};
struct Precomp {
  Fe y_plus_x, y_minus_x, xy2d;
};

void P2Identity(P2* h) {
  h->x = kFeZero;
  h->y = kFeOne;
  h->z = kFeOne;
}

void P3Identity(P3* h) {
  h->x = kFeZero;
  h->y = kFeOne;
  h->z = kFeOne;
  h->t = kFeZero;
}

inline void P1P1ToP2(P2* r, const P1P1& p) {
  FeMul(&r->x, p.x, p.t);
  FeMul(&r->y, p.y, p.z);
  FeMul(&r->z, p.z, p.t);
}

inline void P1P1ToP3(P3* r, const P1P1& p) {
  FeMul(&r->x, p.x, p.t);
  FeMul(&r->y, p.y, p.z);
  FeMul(&r->z, p.z, p.t);
  FeMul(&r->t, p.x, p.y);
}

/// r = 2*p. Uses only (X:Y:Z), so doubling chains stay in P2 and pay for
/// T only when an addition follows.
inline void P2Dbl(P1P1* r, const P2& p) {
  Fe xx, yy, zz2, xpy, xpy2;
  FeSq(&xx, p.x);
  FeSq(&yy, p.y);
  FeSq(&zz2, p.z);
  FeAdd(&zz2, zz2, zz2);
  FeAdd(&xpy, p.x, p.y);
  FeSq(&xpy2, xpy);
  FeAdd(&r->y, yy, xx);        // Y3 = YY + XX
  FeSub(&r->z, yy, xx);        // Z3 = YY - XX
  FeSub(&r->x, xpy2, r->y);    // X3 = (X+Y)^2 - YY - XX = 2XY
  FeSub(&r->t, zz2, r->z);     // T3 = 2ZZ - Z3
}

inline void P3Dbl(P1P1* r, const P3& p) { P2Dbl(r, P2{p.x, p.y, p.z}); }

/// r = p + q.
inline void P3Add(P1P1* r, const P3& p, const Cached& q) {
  Fe a, b, cc, dd, t0;
  FeAdd(&t0, p.y, p.x);
  FeMul(&a, t0, q.y_plus_x);   // A = (Y1+X1)(Y2+X2)
  FeSub(&t0, p.y, p.x);
  FeMul(&b, t0, q.y_minus_x);  // B = (Y1-X1)(Y2-X2)
  FeMul(&cc, p.t, q.t2d);      // C = 2d T1 T2
  FeMul(&dd, p.z, q.z);
  FeAdd(&dd, dd, dd);          // D = 2 Z1 Z2
  FeSub(&r->x, a, b);
  FeAdd(&r->y, a, b);
  FeAdd(&r->z, dd, cc);
  FeSub(&r->t, dd, cc);
}

/// r = p - q: p + q with q negated, i.e. Y+X/Y-X swapped and 2dT negated.
inline void P3Sub(P1P1* r, const P3& p, const Cached& q) {
  Fe a, b, cc, dd, t0;
  FeAdd(&t0, p.y, p.x);
  FeMul(&a, t0, q.y_minus_x);
  FeSub(&t0, p.y, p.x);
  FeMul(&b, t0, q.y_plus_x);
  FeMul(&cc, p.t, q.t2d);
  FeMul(&dd, p.z, q.z);
  FeAdd(&dd, dd, dd);
  FeSub(&r->x, a, b);
  FeAdd(&r->y, a, b);
  FeSub(&r->z, dd, cc);
  FeAdd(&r->t, dd, cc);
}

/// r = p + q for an affine addend (Z2 = 1 saves one multiplication).
inline void P3Add(P1P1* r, const P3& p, const Precomp& q) {
  Fe a, b, cc, dd, t0;
  FeAdd(&t0, p.y, p.x);
  FeMul(&a, t0, q.y_plus_x);
  FeSub(&t0, p.y, p.x);
  FeMul(&b, t0, q.y_minus_x);
  FeMul(&cc, p.t, q.xy2d);
  FeAdd(&dd, p.z, p.z);
  FeSub(&r->x, a, b);
  FeAdd(&r->y, a, b);
  FeAdd(&r->z, dd, cc);
  FeSub(&r->t, dd, cc);
}

/// r = p - q for an affine addend.
inline void P3Sub(P1P1* r, const P3& p, const Precomp& q) {
  Fe a, b, cc, dd, t0;
  FeAdd(&t0, p.y, p.x);
  FeMul(&a, t0, q.y_minus_x);
  FeSub(&t0, p.y, p.x);
  FeMul(&b, t0, q.y_plus_x);
  FeMul(&cc, p.t, q.xy2d);
  FeAdd(&dd, p.z, p.z);
  FeSub(&r->x, a, b);
  FeAdd(&r->y, a, b);
  FeSub(&r->z, dd, cc);
  FeAdd(&r->t, dd, cc);
}

void P3Neg(P3* r, const P3& p) {
  FeNeg(&r->x, p.x);
  r->y = p.y;
  r->z = p.z;
  FeNeg(&r->t, p.t);
}

void P2Compress(uint8_t s[32], const P2& p) {
  Fe zinv, x, y;
  FeInvert(&zinv, p.z);
  FeMul(&x, p.x, zinv);
  FeMul(&y, p.y, zinv);
  FeToBytes(s, y);
  uint8_t xb[32];
  FeToBytes(xb, x);
  s[31] |= static_cast<uint8_t>((xb[0] & 1) << 7);
}

/// True when the 255-bit little-endian value (sign bit ignored) is a
/// canonical field element, i.e. < p = 2^255 - 19.
bool YIsCanonical(const uint8_t s[32]) {
  // y >= p requires bytes 1..30 all 0xff, byte 31 (sans sign) 0x7f, and
  // byte 0 >= 0xed.
  if ((s[31] & 0x7f) != 0x7f || s[0] < 0xed) return true;
  for (int i = 1; i < 31; ++i)
    if (s[i] != 0xff) return true;
  return false;
}

/// The curve constants d, 2d and sqrt(-1). Computed on first use
/// (thread-safe since C++11; pure computation, so rule D1's determinism
/// contract holds).
struct Curve {
  Fe d, d2, sqrt_m1;
};

const Curve& GetCurve() {
  static const Curve curve = [] {
    Curve c;
    FeFromBytes(&c.d, kDBytes);
    FeAdd(&c.d2, c.d, c.d);
    FeFromBytes(&c.sqrt_m1, kSqrtM1Bytes);
    return c;
  }();
  return curve;
}

/// RFC 8032 §5.1.3 decompression with strict (canonical-y) parsing.
[[nodiscard]] bool P3Decompress(P3* h, const uint8_t s[32]) {
  if (!YIsCanonical(s)) return false;
  const Curve& c = GetCurve();
  const bool sign = (s[31] & 0x80) != 0;
  Fe y;
  FeFromBytes(&y, s);
  Fe y2, u, v;
  FeSq(&y2, y);
  FeSub(&u, y2, kFeOne);       // u = y^2 - 1
  FeMul(&v, y2, c.d);
  FeAdd(&v, v, kFeOne);        // v = d y^2 + 1

  // x = u v^3 (u v^7)^((p-5)/8); then fix up by sqrt(-1) or fail.
  Fe v2, v3, v7, uv7, pow, x;
  FeSq(&v2, v);
  FeMul(&v3, v2, v);
  FeSq(&v7, v3);
  FeMul(&v7, v7, v);
  FeMul(&uv7, u, v7);
  FePow22523(&pow, uv7);
  FeMul(&x, u, v3);
  FeMul(&x, x, pow);

  Fe vx2, neg_u;
  FeSq(&vx2, x);
  FeMul(&vx2, vx2, v);
  FeNeg(&neg_u, u);
  if (!FeEqual(vx2, u)) {
    if (!FeEqual(vx2, neg_u)) return false;  // u/v is not a square.
    FeMul(&x, x, c.sqrt_m1);
  }
  if (FeIsZero(x) && sign) return false;  // -0 is not a valid encoding.
  if (FeIsNegative(x) != sign) FeNeg(&x, x);

  h->x = x;
  h->y = y;
  h->z = kFeOne;
  FeMul(&h->t, x, y);
  return true;
}

void P3ToCached(Cached* r, const P3& p) {
  FeAdd(&r->y_plus_x, p.y, p.x);
  FeSub(&r->y_minus_x, p.y, p.x);
  r->z = p.z;
  FeMul(&r->t2d, p.t, GetCurve().d2);
}

/// Affine forms of n points, for tables built once: Montgomery's trick
/// inverts every Z through one field inversion of their product, so a
/// table costs one inversion instead of one per entry.
void ToPrecompBatch(Precomp* out, const P3* points, size_t n) {
  std::vector<Fe> prefix(n);  // prefix[i] = z_0 z_1 ... z_{i-1}
  Fe acc = kFeOne;
  for (size_t i = 0; i < n; ++i) {
    prefix[i] = acc;
    FeMul(&acc, acc, points[i].z);
  }
  Fe inv;
  FeInvert(&inv, acc);  // 1 / (z_0 ... z_{n-1}); no Z of a curve point is 0.
  for (size_t i = n; i-- > 0;) {
    Fe zinv, x, y;
    FeMul(&zinv, inv, prefix[i]);   // 1 / z_i
    FeMul(&inv, inv, points[i].z);  // 1 / (z_0 ... z_{i-1})
    FeMul(&x, points[i].x, zinv);
    FeMul(&y, points[i].y, zinv);
    FeAdd(&out[i].y_plus_x, y, x);
    FeSub(&out[i].y_minus_x, y, x);
    FeMul(&out[i].xy2d, x, y);
    FeMul(&out[i].xy2d, out[i].xy2d, GetCurve().d2);
  }
}

/// P, 3P, 5P, ..., (2n-1)P: the wNAF digit d selects out[|d| / 2].
void OddMultiples(P3* out, int n, const P3& p) {
  P1P1 t;
  P3 p2;
  P3Dbl(&t, p);
  P1P1ToP3(&p2, t);
  Cached step;
  P3ToCached(&step, p2);
  out[0] = p;
  for (int i = 1; i < n; ++i) {
    P3Add(&t, out[i - 1], step);
    P1P1ToP3(&out[i], t);
  }
}

/// h = [2^128] p: the high-half companion of a split-scalar table.
void TimesTwoPow128(P3* h, const P3& p) {
  P2 q{p.x, p.y, p.z};
  P1P1 t;
  for (int i = 0; i < 127; ++i) {
    P2Dbl(&t, q);
    P1P1ToP2(&q, t);
  }
  P2Dbl(&t, q);
  P1P1ToP3(h, t);
}

/// odd[0, kTableOddMultiples) = the odd multiples of p and
/// odd[kTableOddMultiples, 2 kTableOddMultiples) = those of 2^128 p, in
/// affine form (one inversion for both halves).
void SplitScalarTable(Precomp* odd, const P3& p) {
  P3 p_hi;
  TimesTwoPow128(&p_hi, p);
  std::vector<P3> multiples(2 * kTableOddMultiples);
  OddMultiples(multiples.data(), kTableOddMultiples, p);
  OddMultiples(multiples.data() + kTableOddMultiples, kTableOddMultiples,
               p_hi);
  ToPrecompBatch(odd, multiples.data(), multiples.size());
}

/// Base-point tables, built once per process on first use.
///   comb[j][k] = (k+1) * 256^j * B: signing's fixed-base comb.
///   odd        = odd multiples of B, then of 2^128 B: verification's
///                width-kTableWindow tables (SplitScalarTable).
struct BaseTables {
  Precomp comb[32][8];
  Precomp odd[2 * kTableOddMultiples];
};

const BaseTables& GetBaseTables() {
  static const BaseTables tables = [] {
    BaseTables tab;
    P3 base;
    bool ok = P3Decompress(&base, kBaseBytes);
    (void)ok;  // The encoding is a compile-time constant; always valid.

    std::vector<P3> comb;  // Row-major: comb[8 j + k].
    comb.reserve(32 * 8);
    P1P1 t;
    P3 row = base;  // 256^j * B
    for (int j = 0; j < 32; ++j) {
      Cached step;
      P3ToCached(&step, row);
      P3 multiple = row;
      for (int k = 0; k < 8; ++k) {
        comb.push_back(multiple);
        P3Add(&t, multiple, step);
        P1P1ToP3(&multiple, t);
      }
      for (int i = 0; i < 8; ++i) {
        P3Dbl(&t, row);
        P1P1ToP3(&row, t);
      }
    }
    std::vector<Precomp> affine(comb.size());
    ToPrecompBatch(affine.data(), comb.data(), comb.size());
    for (int j = 0; j < 32; ++j)
      for (int k = 0; k < 8; ++k) tab.comb[j][k] = affine[8 * j + k];

    SplitScalarTable(tab.odd, base);
    return tab;
  }();
  return tables;
}

// -------------------------------------------------------------- Scalars
// Arithmetic mod L on 32-byte little-endian scalars, TweetNaCl style:
// simple byte-limb schoolbook, negligible next to the point arithmetic.

void ScModL(uint8_t r[32], int64_t x[64]) {
  int64_t carry;
  for (int i = 63; i >= 32; --i) {
    carry = 0;
    int j;
    for (j = i - 32; j < i - 12; ++j) {
      x[j] += carry - 16 * x[i] * static_cast<int64_t>(kL[j - (i - 32)]);
      carry = (x[j] + 128) >> 8;
      x[j] -= carry << 8;
    }
    x[j] += carry;
    x[i] = 0;
  }
  carry = 0;
  for (int j = 0; j < 32; ++j) {
    x[j] += carry - (x[31] >> 4) * static_cast<int64_t>(kL[j]);
    carry = x[j] >> 8;
    x[j] &= 255;
  }
  for (int j = 0; j < 32; ++j) x[j] -= carry * static_cast<int64_t>(kL[j]);
  for (int i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    r[i] = static_cast<uint8_t>(x[i] & 255);
  }
}

/// r = x mod L for a 64-byte (512-bit) little-endian input.
void ScReduce64(uint8_t r[32], const uint8_t x[64]) {
  int64_t t[64];
  for (int i = 0; i < 64; ++i) t[i] = x[i];
  ScModL(r, t);
}

/// r = (a * b + c) mod L, all 32-byte little-endian scalars.
void ScMulAdd(uint8_t r[32], const uint8_t a[32], const uint8_t b[32],
              const uint8_t c[32]) {
  int64_t t[64] = {0};
  for (int i = 0; i < 32; ++i)
    for (int j = 0; j < 32; ++j)
      t[i + j] += static_cast<int64_t>(a[i]) * static_cast<int64_t>(b[j]);
  for (int i = 0; i < 32; ++i) t[i] += c[i];
  ScModL(r, t);
}

/// True iff the 32-byte little-endian scalar is < L (RFC 8032's MUST for
/// the s half of a signature; rejects the (s + L) malleability).
bool ScIsCanonical(const uint8_t s[32]) {
  for (int i = 31; i >= 0; --i) {
    if (s[i] < kL[i]) return true;
    if (s[i] > kL[i]) return false;
  }
  return false;  // s == L.
}

// ------------------------------------------- Fixed-base comb (constant time)
// [a]B for a secret a: a is recoded into 64 signed radix-16 digits
// e_i in [-8, 8], so a = sum_i e_i 16^i, and
//   [a]B = sum_{i odd} [e_i] 16^i B  doubled four times
//        + sum_{i even} [e_i] 16^i B,
// where every [e_i] 16^(i - i%2) B is one of comb[i/2][|e_i| - 1], negated
// for e_i < 0. The entry is selected by scanning the whole row with masks
// and every digit costs the same addition, so neither memory access nor
// control flow depends on the secret.

/// 1 when b == c, else 0 (b, c in [0, 8]), without a branch.
inline u64 EqualMask(int8_t b, int8_t c) {
  const uint32_t x = static_cast<uint8_t>(b ^ c);
  return static_cast<u64>((x - 1) >> 31);
}

void SelectComb(Precomp* t, const BaseTables& tab, int row, int8_t digit) {
  const u64 negative = static_cast<uint8_t>(digit) >> 7;
  const int sign_mask = -static_cast<int>(negative);
  const int8_t magnitude = static_cast<int8_t>((digit ^ sign_mask) - sign_mask);
  t->y_plus_x = kFeOne;
  t->y_minus_x = kFeOne;
  t->xy2d = kFeZero;
  for (int k = 0; k < 8; ++k) {
    const Precomp& entry = tab.comb[row][k];
    const u64 hit = EqualMask(magnitude, static_cast<int8_t>(k + 1));
    FeCmov(&t->y_plus_x, entry.y_plus_x, hit);
    FeCmov(&t->y_minus_x, entry.y_minus_x, hit);
    FeCmov(&t->xy2d, entry.xy2d, hit);
  }
  // -(x, y) = (-x, y): swaps Y+X with Y-X and negates 2dxy.
  Precomp minus;
  minus.y_plus_x = t->y_minus_x;
  minus.y_minus_x = t->y_plus_x;
  FeNeg(&minus.xy2d, t->xy2d);
  FeCmov(&t->y_plus_x, minus.y_plus_x, negative);
  FeCmov(&t->y_minus_x, minus.y_minus_x, negative);
  FeCmov(&t->xy2d, minus.xy2d, negative);
}

/// h = [a]B for a 32-byte little-endian scalar with a[31] <= 127 (reduced
/// nonces and clamped secret scalars both qualify).
void ScalarMulBase(P3* h, const uint8_t a[32]) {
  int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<int8_t>(a[i] & 15);
    e[2 * i + 1] = static_cast<int8_t>((a[i] >> 4) & 15);
  }
  int8_t carry = 0;
  for (int i = 0; i < 63; ++i) {
    e[i] = static_cast<int8_t>(e[i] + carry);
    carry = static_cast<int8_t>((e[i] + 8) >> 4);
    e[i] = static_cast<int8_t>(e[i] - carry * 16);
  }
  e[63] = static_cast<int8_t>(e[63] + carry);

  const BaseTables& tab = GetBaseTables();
  P1P1 r;
  Precomp t;
  P3Identity(h);
  for (int i = 1; i < 64; i += 2) {
    SelectComb(&t, tab, i / 2, e[i]);
    P3Add(&r, *h, t);
    P1P1ToP3(h, r);
  }
  P2 s;
  P3Dbl(&r, *h);
  P1P1ToP2(&s, r);
  P2Dbl(&r, s);
  P1P1ToP2(&s, r);
  P2Dbl(&r, s);
  P1P1ToP2(&s, r);
  P2Dbl(&r, s);
  P1P1ToP3(h, r);
  for (int i = 0; i < 64; i += 2) {
    SelectComb(&t, tab, i / 2, e[i]);
    P3Add(&r, *h, t);
    P1P1ToP3(h, r);
  }
}

// ------------------------------------------ wNAF verification (variable time)
// Every input to verification is public, so the multi-scalar product
// sum_k [x_k]P_k uses signed sliding windows: each scalar becomes digits
// that are zero or odd with |d| < 2^(w-1), at most one nonzero per w
// positions, and one shared chain of doublings adds table[|d| / 2] (or
// subtracts it) wherever a digit is nonzero. Scalars wider than 128 bits
// are split in halves, [k]P = [k_lo]P + [k_hi](2^128 P), over tables of P
// and 2^128 P, so the chain is never longer than kHalfDigits.

using HalfNaf = std::array<int8_t, kHalfDigits>;

/// Width-w NAF of the kHalfBytes-byte little-endian value at `half`.
/// Returns one past the highest nonzero digit (0 for zero).
int ComputeNaf(HalfNaf* naf, const uint8_t* half, int w) {
  u64 x[3] = {0, 0, 0};  // x[2] stays 0: windows read past the top word.
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 8; ++j)
      x[i] |= static_cast<u64>(half[8 * i + j]) << (8 * j);
  naf->fill(0);
  const u64 width = u64{1} << w;
  const u64 window_mask = width - 1;
  u64 carry = 0;
  int top = 0;
  for (int pos = 0; pos < kHalfDigits;) {
    const int idx = pos / 64, bit = pos % 64;
    u64 bits = x[idx] >> bit;
    if (bit + w > 64) bits |= x[idx + 1] << (64 - bit);
    const u64 window = carry + (bits & window_mask);
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      (*naf)[pos] = static_cast<int8_t>(window);
    } else {
      carry = 1;
      (*naf)[pos] = static_cast<int8_t>(static_cast<int>(window) -
                                        static_cast<int>(width));
    }
    top = pos + 1;
    pos += w;
  }
  return top;
}

/// Width-w NAFs of the low and high 128-bit halves of a 32-byte scalar.
/// Returns one past the highest nonzero digit of either.
int SplitNaf(HalfNaf* lo, HalfNaf* hi, const uint8_t scalar[32], int w) {
  return std::max(ComputeNaf(lo, scalar, w),
                  ComputeNaf(hi, scalar + kHalfBytes, w));
}

/// One term of a multi-scalar product: the digits of a scalar below 2^128
/// and the odd multiples of its point, affine (Precomp: static and per-key
/// tables) or projective (Cached: tables built per check).
template <typename Entry>
struct Term {
  const int8_t* naf;
  const Entry* odd;
};

/// Adds [d] of the term's point to t (d odd, or 0 for nothing).
template <typename Entry>
inline void AddDigit(P1P1* t, P3* extended, int8_t d, const Entry* odd) {
  if (d == 0) return;
  P1P1ToP3(extended, *t);
  if (d > 0) {
    P3Add(t, *extended, odd[d / 2]);
  } else {
    P3Sub(t, *extended, odd[-d / 2]);
  }
}

/// out = the sum of every term's [scalar]point, sharing one chain of `top`
/// doublings, where `top` is one past the highest nonzero digit of any
/// term.
void MultiScalarVartime(P2* out, std::span<const Term<Precomp>> affine,
                        std::span<const Term<Cached>> projective, int top) {
  P2Identity(out);
  P1P1 t;
  P3 extended;
  for (int i = top - 1; i >= 0; --i) {
    P2Dbl(&t, *out);
    for (const Term<Precomp>& term : affine)
      AddDigit(&t, &extended, term.naf[i], term.odd);
    for (const Term<Cached>& term : projective)
      AddDigit(&t, &extended, term.naf[i], term.odd);
    P1P1ToP2(out, t);
  }
}

/// h = SHA512(R || A || M) mod L — the Schnorr challenge scalar.
void ChallengeScalar(uint8_t h[32], const uint8_t r_bytes[32],
                     const PublicKey& public_key, const uint8_t* data,
                     size_t len) {
  Sha512 hash;
  hash.Update(r_bytes, 32);
  hash.Update(public_key.data(), public_key.size());
  hash.Update(data, len);
  Digest512 digest = hash.Finish();
  ScReduce64(h, digest.data());
}

/// a (clamped) and the nonce prefix from the secret seed (RFC 8032 §5.1.5).
void ExpandSecret(uint8_t a[32], uint8_t prefix[32], const SecretKey& secret) {
  Digest512 h = Sha512::Hash(secret.data(), secret.size());
  std::memcpy(a, h.data(), 32);
  std::memcpy(prefix, h.data() + 32, 32);
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
}

}  // namespace

/// Odd multiples of -A, then of -2^128 A (SplitScalarTable): the per-key
/// half of every check, built once by PrepareKey.
struct KeyTables {
  Precomp odd[2 * kTableOddMultiples];
};

PublicKey DerivePublicKey(const SecretKey& secret) {
  uint8_t a[32], prefix[32];
  ExpandSecret(a, prefix, secret);
  P3 point;
  ScalarMulBase(&point, a);
  PublicKey pk;
  P2Compress(pk.data(), P2{point.x, point.y, point.z});
  return pk;
}

Sig Sign(const SecretKey& secret, const PublicKey& public_key,
         const uint8_t* data, size_t len) {
  uint8_t a[32], prefix[32];
  ExpandSecret(a, prefix, secret);

  // Deterministic nonce r = SHA512(prefix || M) mod L.
  Sha512 hash;
  hash.Update(prefix, 32);
  hash.Update(data, len);
  Digest512 nonce_hash = hash.Finish();
  uint8_t r[32];
  ScReduce64(r, nonce_hash.data());

  P3 r_point;
  ScalarMulBase(&r_point, r);
  Sig sig{};
  P2Compress(sig.data(), P2{r_point.x, r_point.y, r_point.z});

  uint8_t h[32], s[32];
  ChallengeScalar(h, sig.data(), public_key, data, len);
  ScMulAdd(s, h, a, r);  // s = (r + h*a) mod L.
  std::memcpy(sig.data() + 32, s, 32);
  return sig;
}

std::optional<PreparedKey> PrepareKey(const PublicKey& public_key) {
  P3 a_point;
  if (!P3Decompress(&a_point, public_key.data())) return std::nullopt;
  P3 neg_a;
  P3Neg(&neg_a, a_point);
  auto tables = std::make_shared<KeyTables>();
  SplitScalarTable(tables->odd, neg_a);
  return PreparedKey(public_key, std::move(tables));
}

bool Verify(const PreparedKey& key, const uint8_t* data, size_t len,
            const Sig& sig) {
  if (!ScIsCanonical(sig.data() + 32)) return false;
  uint8_t h[32];
  ChallengeScalar(h, sig.data(), key.encoded(), data, len);

  // R' = [s]B - [h]A must re-encode to the signature's R bytes.
  const Precomp* base = GetBaseTables().odd;
  const Precomp* neg_a = key.tables().odd;
  HalfNaf s_lo, s_hi, h_lo, h_hi;
  const int top =
      std::max(SplitNaf(&s_lo, &s_hi, sig.data() + 32, kTableWindow),
               SplitNaf(&h_lo, &h_hi, h, kTableWindow));
  const Term<Precomp> terms[] = {{s_lo.data(), base},
                                 {s_hi.data(), base + kTableOddMultiples},
                                 {h_lo.data(), neg_a},
                                 {h_hi.data(), neg_a + kTableOddMultiples}};
  P2 r_check;
  MultiScalarVartime(&r_check, terms, {}, top);
  uint8_t r_bytes[32];
  P2Compress(r_bytes, r_check);
  return std::memcmp(r_bytes, sig.data(), 32) == 0;
}

bool Verify(const PublicKey& public_key, const uint8_t* data, size_t len,
            const Sig& sig) {
  const std::optional<PreparedKey> key = PrepareKey(public_key);
  return key && Verify(*key, data, len, sig);
}

bool VerifyBatch(const std::vector<BatchItem>& items, const uint8_t* data,
                 size_t len) {
  const size_t n = items.size();
  if (n == 0) return true;
  if (n == 1) return Verify(*items[0].key, data, len, *items[0].sig);

  // Deterministic 128-bit combination coefficients z_i: a transcript hash
  // over the whole batch, then one hash per index. No signer controls the
  // full transcript, so engineering a cancellation across terms requires
  // predicting SHA-512 outputs.
  Sha512 transcript;
  transcript.Update("massbft-ed25519-batch-v1");
  transcript.Update(data, len);
  for (const BatchItem& item : items) {
    transcript.Update(item.key->encoded().data(), item.key->encoded().size());
    transcript.Update(item.sig->data(), item.sig->size());
  }
  const Digest512 seed = transcript.Finish();

  // Decompress every R_i up front (the keys arrive decompressed); any
  // malformed encoding fails the batch, and the scalar fallback then
  // pinpoints it.
  std::vector<P3> neg_r(n);
  for (size_t i = 0; i < n; ++i) {
    if (!ScIsCanonical(items[i].sig->data() + 32)) return false;
    P3 point;
    if (!P3Decompress(&point, items[i].sig->data())) return false;
    P3Neg(&neg_r[i], point);
  }

  uint8_t zero[32] = {0};
  uint8_t b_scalar[32] = {0};  // sum_i z_i s_i mod L.
  std::vector<std::array<uint8_t, 32>> z(n), zh(n);
  for (size_t i = 0; i < n; ++i) {
    Sha512 zi_hash;
    zi_hash.Update(seed.data(), seed.size());
    const uint8_t index = static_cast<uint8_t>(i);
    zi_hash.Update(&index, 1);
    const Digest512 zi = zi_hash.Finish();
    z[i].fill(0);
    std::memcpy(z[i].data(), zi.data(), 16);  // z_i in [0, 2^128).

    uint8_t h[32];
    ChallengeScalar(h, items[i].sig->data(), items[i].key->encoded(), data,
                    len);
    ScMulAdd(zh[i].data(), z[i].data(), h, zero);          // z_i h_i
    ScMulAdd(b_scalar, z[i].data(), items[i].sig->data() + 32,
             b_scalar);                                    // += z_i s_i
  }

  // [sum z_i s_i]B - sum [z_i]R_i - sum [z_i h_i]A_i == identity. The
  // z_i are already below 2^128; the other scalars are split in halves.
  const Precomp* base = GetBaseTables().odd;
  HalfNaf b_lo, b_hi;
  int top = SplitNaf(&b_lo, &b_hi, b_scalar, kTableWindow);
  std::vector<Term<Precomp>> affine = {
      {b_lo.data(), base}, {b_hi.data(), base + kTableOddMultiples}};
  affine.reserve(2 + 2 * n);
  std::vector<Term<Cached>> projective(n);
  std::vector<HalfNaf> zh_lo(n), zh_hi(n), z_naf(n);
  std::vector<std::array<Cached, kPointOddMultiples>> r_tables(n);
  for (size_t i = 0; i < n; ++i) {
    top = std::max(top,
                   SplitNaf(&zh_lo[i], &zh_hi[i], zh[i].data(), kTableWindow));
    const Precomp* neg_a = items[i].key->tables().odd;
    affine.push_back({zh_lo[i].data(), neg_a});
    affine.push_back({zh_hi[i].data(), neg_a + kTableOddMultiples});

    top = std::max(top, ComputeNaf(&z_naf[i], z[i].data(), kPointWindow));
    P3 multiples[kPointOddMultiples];
    OddMultiples(multiples, kPointOddMultiples, neg_r[i]);
    for (int k = 0; k < kPointOddMultiples; ++k)
      P3ToCached(&r_tables[i][k], multiples[k]);
    projective[i] = {z_naf[i].data(), r_tables[i].data()};
  }
  P2 result;
  MultiScalarVartime(&result, affine, projective, top);
  // The identity is (0 : Z : Z); Z never vanishes for curve points.
  return FeIsZero(result.x) && FeEqual(result.y, result.z);
}

}  // namespace ed25519
}  // namespace massbft
