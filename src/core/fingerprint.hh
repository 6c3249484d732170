/**
 * @file
 * Stable configuration fingerprinting for sharded-sweep records.
 *
 * A fingerprint is a 64-bit FNV-1a hash over every SystemConfig field
 * that determines simulation *results*: grid coordinates, policies,
 * buffering, the full workload description, seed and window lengths.
 * The passive collection toggles (collectPerModule, collectLatency)
 * are excluded. The leading version tag is SBNFPV02 (the workload layer
 * replaced the bare moduleWeights vector; V01 records never match
 * and are discarded on resume).
 *
 * Fingerprints identify grid points across processes, hosts and
 * repository revisions (they are pure arithmetic over field values,
 * no pointers, no platform-dependent layout), which is what lets a
 * resumed shard prove a previously written record belongs to the
 * point it is about to skip.
 */

#ifndef SBN_CORE_FINGERPRINT_HH
#define SBN_CORE_FINGERPRINT_HH

#include <cstdint>
#include <string>

#include "core/config.hh"

namespace sbn {

/** 64-bit result-determining fingerprint of @p config. */
std::uint64_t configFingerprint(const SystemConfig &config);

/**
 * The FNV-1a mixing step all sbn fingerprints are built from: fold
 * the 8 bytes of @p value into @p state (little-endian byte order).
 * Derived fingerprints (e.g. the shard layer's run fingerprints)
 * must extend configFingerprint() through this same function so the
 * two can never drift apart.
 */
std::uint64_t fingerprintMix(std::uint64_t state, std::uint64_t value);

/** The IEEE-754 bit pattern of @p value, as fingerprint input. */
std::uint64_t doubleFingerprintBits(double value);

/** Rebuild the double behind a doubleFingerprintBits() pattern. */
double doubleFromFingerprintBits(std::uint64_t bits);

/**
 * The canonical exact decimal form of a double: %.17g, which
 * round-trips the bit pattern. Every serializer that pairs decimals
 * with bit patterns (shard records, the analytic disk cache, golden
 * files) must render through this one function so the codecs can
 * never drift apart.
 */
std::string formatExactDouble(double value);

/** Render a fingerprint as the canonical "0x%016x" record form. */
std::string formatFingerprint(std::uint64_t fingerprint);

/**
 * Parse the canonical "0x%016x" form back. Returns false (leaving
 * @p out untouched) on anything else - wrong prefix, wrong length,
 * non-hex digits.
 */
bool parseFingerprint(const std::string &text, std::uint64_t &out);

} // namespace sbn

#endif // SBN_CORE_FINGERPRINT_HH
