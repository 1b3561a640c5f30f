#include "sha256.hh"

#include <algorithm>
#include <cstring>

#include "common/bytes_util.hh"
#include "cpu_features.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ccai::crypto
{

namespace
{

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

void
compressScalar(std::uint32_t state[8], const std::uint8_t *block,
               size_t nblocks)
{
    for (; nblocks > 0; --nblocks, block += kSha256BlockSize) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i)
            w[i] = loadBe32(block + 4 * i);
        for (int i = 16; i < 64; ++i) {
            std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                               (w[i - 15] >> 3);
            std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                               (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2],
                      d = state[3], e = state[4], f = state[5],
                      g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            std::uint32_t ch = (e & f) ^ (~e & g);
            std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
            std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)

/**
 * SHA-NI compress. The extensions keep the working variables as two
 * lane-packed vectors, ABEF and CDGH; each sha256rnds2 runs two
 * rounds, and sha256msg1/msg2 extend the message schedule four words
 * at a time. Carries its own target attribute so this file builds
 * with baseline flags; only reached when cpuid reports SHA.
 */
__attribute__((target("sha,sse4.1,ssse3"))) void
compressShaNi(std::uint32_t state[8], const std::uint8_t *block,
              size_t nblocks)
{
    // Per-dword byte swap: message words are big-endian.
    const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL,
                                         0x0405060700010203ULL);
    __m128i dcba = _mm_loadu_si128(reinterpret_cast<__m128i *>(state));
    __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<__m128i *>(state + 4));
    __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; nblocks > 0; --nblocks, block += kSha256BlockSize) {
        const __m128i abefIn = abef;
        const __m128i cdghIn = cdgh;
        // w[i & 3] holds schedule words 4i..4i+3 of quad-round i.
        __m128i w[4];
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i) {
            if (i < 4) {
                w[i] = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                        block + 16 * i)),
                    bswap);
            } else {
                // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]
                __m128i t = _mm_sha256msg1_epu32(w[i & 3], w[(i + 1) & 3]);
                t = _mm_add_epi32(
                    t, _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4));
                w[i & 3] = _mm_sha256msg2_epu32(t, w[(i + 3) & 3]);
            }
            __m128i wk = _mm_add_epi32(
                w[i & 3],
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    kK + 4 * i)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                         _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abefIn);
        cdgh = _mm_add_epi32(cdgh, cdghIn);
    }

    __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#endif // __x86_64__

/** The routine a hasher constructed now should use. */
Sha256::CompressFn
selectCompress()
{
#if defined(__x86_64__)
    const CpuFeatures &f = cpuFeatures();
    if (simdTier() != SimdTier::kNone && f.sha && f.sse41 && f.ssse3)
        return compressShaNi;
#endif
    return compressScalar;
}

} // namespace

Sha256::Sha256() : compress_(selectCompress()) { reset(); }

const char *
sha256ImplName()
{
    return selectCompress() == compressScalar ? "scalar" : "sha-ni";
}

void
Sha256::reset()
{
    state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    totalLen_ = 0;
    bufferLen_ = 0;
}

void
Sha256::update(const std::uint8_t *data, size_t len)
{
    if (len == 0)
        return;
    totalLen_ += len;
    if (bufferLen_ > 0) {
        size_t take = std::min(len, kSha256BlockSize - bufferLen_);
        std::memcpy(buffer_ + bufferLen_, data, take);
        bufferLen_ += take;
        data += take;
        len -= take;
        if (bufferLen_ < kSha256BlockSize)
            return;
        compress_(state_.data(), buffer_, 1);
        bufferLen_ = 0;
    }
    size_t nblocks = len / kSha256BlockSize;
    if (nblocks > 0) {
        compress_(state_.data(), data, nblocks);
        data += nblocks * kSha256BlockSize;
        len -= nblocks * kSha256BlockSize;
    }
    if (len > 0) {
        std::memcpy(buffer_, data, len);
        bufferLen_ = len;
    }
}

void
Sha256::finalize(std::uint8_t *out)
{
    constexpr size_t lenOffset = kSha256BlockSize - 8;
    buffer_[bufferLen_++] = 0x80;
    if (bufferLen_ > lenOffset) {
        std::memset(buffer_ + bufferLen_, 0,
                    kSha256BlockSize - bufferLen_);
        compress_(state_.data(), buffer_, 1);
        bufferLen_ = 0;
    }
    std::memset(buffer_ + bufferLen_, 0, lenOffset - bufferLen_);
    storeBe64(buffer_ + lenOffset, totalLen_ * 8);
    compress_(state_.data(), buffer_, 1);

    for (int i = 0; i < 8; ++i)
        storeBe32(out + 4 * i, state_[i]);
    reset();
}

Bytes
Sha256::finalize()
{
    Bytes out(kSha256DigestSize);
    finalize(out.data());
    return out;
}

Bytes
Sha256::digest(const Bytes &data)
{
    Sha256 h;
    h.update(data);
    return h.finalize();
}

Bytes
Sha256::digest(const std::string &data)
{
    Sha256 h;
    h.update(reinterpret_cast<const std::uint8_t *>(data.data()),
             data.size());
    return h.finalize();
}

HmacSha256::HmacSha256(const Bytes &key)
{
    std::uint8_t k[kSha256BlockSize] = {};
    if (key.size() > kSha256BlockSize) {
        Sha256 h;
        h.update(key);
        h.finalize(k);
    } else if (!key.empty()) {
        std::memcpy(k, key.data(), key.size());
    }

    std::uint8_t pad[kSha256BlockSize];
    for (size_t i = 0; i < kSha256BlockSize; ++i)
        pad[i] = k[i] ^ 0x36;
    inner_.update(pad, kSha256BlockSize);
    for (size_t i = 0; i < kSha256BlockSize; ++i)
        pad[i] = k[i] ^ 0x5c;
    outer_.update(pad, kSha256BlockSize);
}

void
HmacSha256::finish(Sha256 &inner, std::uint8_t *out) const
{
    std::uint8_t innerDigest[kSha256DigestSize];
    inner.finalize(innerDigest);
    Sha256 outer = outer_;
    outer.update(innerDigest, kSha256DigestSize);
    outer.finalize(out);
}

Bytes
HmacSha256::mac(const Bytes &msg) const
{
    Sha256 inner = inner_;
    inner.update(msg);
    Bytes out(kSha256DigestSize);
    finish(inner, out.data());
    return out;
}

Bytes
hmacSha256(const Bytes &key, const Bytes &message)
{
    return HmacSha256(key).mac(message);
}

Bytes
kdf(const Bytes &ikm, const Bytes &salt, const std::string &info,
    size_t length)
{
    // Extract
    HmacSha256 prk(hmacSha256(salt, ikm));
    // Expand
    Bytes okm;
    Bytes t;
    std::uint8_t counter = 1;
    while (okm.size() < length) {
        Bytes block = t;
        block.insert(block.end(), info.begin(), info.end());
        block.push_back(counter++);
        t = prk.mac(block);
        okm.insert(okm.end(), t.begin(), t.end());
    }
    okm.resize(length);
    return okm;
}

} // namespace ccai::crypto
