/**
 * @file
 * SHA-256 (FIPS 180-4) with streaming interface, plus HMAC-SHA256
 * (one-shot and keyed with cached pad midstates) and a simple
 * HKDF-style key derivation.
 *
 * The block compression is runtime-dispatched: a SHA-NI routine when
 * cpuid reports the SHA extensions and simdTier() is not kNone,
 * otherwise the portable scalar routine. Both produce identical
 * digests; `CCAI_NO_SIMD=1` forces the scalar one.
 */

#ifndef CCAI_CRYPTO_SHA256_HH
#define CCAI_CRYPTO_SHA256_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ccai::crypto
{

constexpr size_t kSha256DigestSize = 32;
constexpr size_t kSha256BlockSize = 64;

/**
 * Streaming SHA-256 hasher. The compress routine is chosen when the
 * hasher is constructed (see simdTier()) and kept across reset() and
 * copies, so a copied midstate hashes with the same routine.
 */
class Sha256
{
  public:
    Sha256();

    /** Restore initial state. */
    void reset();

    /** Absorb @p len bytes. Full blocks compress straight from
     * @p data; only a trailing partial block is buffered. */
    void update(const std::uint8_t *data, size_t len);
    void update(const Bytes &data) { update(data.data(), data.size()); }

    /** Finish, write the 32-byte digest to @p out, and reset. */
    void finalize(std::uint8_t *out);

    /** Finish and return the 32-byte digest. */
    Bytes finalize();

    /** One-shot convenience. */
    static Bytes digest(const Bytes &data);
    static Bytes digest(const std::string &data);

    /** Compress @p nblocks 64-byte blocks into @p state. */
    using CompressFn = void (*)(std::uint32_t state[8],
                                const std::uint8_t *blocks,
                                size_t nblocks);

  private:
    CompressFn compress_;
    std::array<std::uint32_t, 8> state_{};
    std::uint64_t totalLen_ = 0;
    std::uint8_t buffer_[kSha256BlockSize] = {};
    size_t bufferLen_ = 0;
};

/**
 * HMAC-SHA256 (RFC 2104) bound to one key. The constructor absorbs
 * the ipad and opad blocks once and keeps both midstates, so each
 * MAC costs the message blocks plus two compressions and builds no
 * pads; the begin()/finish() path also allocates nothing.
 */
class HmacSha256
{
  public:
    explicit HmacSha256(const Bytes &key = {});

    /**
     * Start a streamed MAC: a hasher that has absorbed the ipad
     * block. Feed the message with update(), then call finish().
     */
    Sha256 begin() const { return inner_; }

    /** Complete a MAC started by begin(); writes 32 bytes. */
    void finish(Sha256 &inner, std::uint8_t *out) const;

    /** One-shot MAC of @p msg under this key. */
    Bytes mac(const Bytes &msg) const;

  private:
    Sha256 inner_;
    Sha256 outer_;
};

/** Compress routine a Sha256 constructed now selects: "sha-ni" or
 * "scalar". */
const char *sha256ImplName();

/** HMAC-SHA256 (RFC 2104). */
Bytes hmacSha256(const Bytes &key, const Bytes &message);

/**
 * Derive @p length bytes of key material from input keying material,
 * salt and context info (HKDF-like extract+expand on HMAC-SHA256).
 */
Bytes kdf(const Bytes &ikm, const Bytes &salt, const std::string &info,
          size_t length);

} // namespace ccai::crypto

#endif // CCAI_CRYPTO_SHA256_HH
