/**
 * @file
 * SHA-256 / HMAC-SHA256 / KDF tests against the FIPS 180-4 and RFC
 * 4231 known-answer vectors, plus scalar-vs-SHA-NI parity. CI runs
 * the binary a second time under CCAI_NO_SIMD=1.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/bytes_util.hh"
#include "crypto/cpu_features.hh"
#include "crypto/sha256.hh"
#include "sim/rng.hh"

using namespace ccai;
using crypto::Sha256;

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(toHex(Sha256::digest(std::string(""))),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(toHex(Sha256::digest(std::string("abc"))),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(toHex(Sha256::digest(std::string(
                  "abcdbcdecdefdefgefghfghighijhijk"
                  "ijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 h;
    Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        h.update(chunk);
    EXPECT_EQ(toHex(h.finalize()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot)
{
    sim::Rng rng(3);
    Bytes data = rng.bytes(10000);
    Sha256 streaming;
    size_t off = 0;
    size_t sizes[] = {1, 63, 64, 65, 100, 1000};
    int i = 0;
    while (off < data.size()) {
        size_t take =
            std::min(sizes[i++ % 6], data.size() - off);
        streaming.update(data.data() + off, take);
        off += take;
    }
    EXPECT_EQ(streaming.finalize(), Sha256::digest(data));
}

TEST(Sha256, ReusableAfterFinalize)
{
    Sha256 h;
    h.update(Bytes{'a', 'b', 'c'});
    Bytes first = h.finalize();
    h.update(Bytes{'a', 'b', 'c'});
    EXPECT_EQ(h.finalize(), first);
}

// RFC 4231 test case 1.
TEST(HmacSha256, Rfc4231Case1)
{
    Bytes key(20, 0x0b);
    Bytes msg = {'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'};
    EXPECT_EQ(toHex(crypto::hmacSha256(key, msg)),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 (key shorter than block).
TEST(HmacSha256, Rfc4231Case2)
{
    Bytes key = {'J', 'e', 'f', 'e'};
    std::string m = "what do ya want for nothing?";
    Bytes msg(m.begin(), m.end());
    EXPECT_EQ(toHex(crypto::hmacSha256(key, msg)),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 6 (key longer than block).
TEST(HmacSha256, Rfc4231Case6)
{
    Bytes key(131, 0xaa);
    std::string m = "Test Using Larger Than Block-Size Key - "
                    "Hash Key First";
    Bytes msg(m.begin(), m.end());
    EXPECT_EQ(toHex(crypto::hmacSha256(key, msg)),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(Kdf, DeterministicAndLabelSeparated)
{
    Bytes ikm(22, 0x0b);
    Bytes salt = fromHex("000102030405060708090a0b0c");
    Bytes a = crypto::kdf(ikm, salt, "label-a", 32);
    Bytes b = crypto::kdf(ikm, salt, "label-a", 32);
    Bytes c = crypto::kdf(ikm, salt, "label-b", 32);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a.size(), 32u);
}

TEST(Kdf, VariableOutputLengthsArePrefixConsistent)
{
    Bytes ikm(32, 0x55);
    Bytes long_out = crypto::kdf(ikm, {}, "x", 80);
    Bytes short_out = crypto::kdf(ikm, {}, "x", 16);
    EXPECT_EQ(Bytes(long_out.begin(), long_out.begin() + 16),
              short_out);
    EXPECT_EQ(long_out.size(), 80u);
}

TEST(Kdf, SaltChangesOutput)
{
    Bytes ikm(32, 0x55);
    EXPECT_NE(crypto::kdf(ikm, Bytes{1}, "x", 32),
              crypto::kdf(ikm, Bytes{2}, "x", 32));
}

// RFC 4231 test case 3 (50-byte message of 0xdd).
TEST(HmacSha256, Rfc4231Case3)
{
    Bytes key(20, 0xaa);
    Bytes msg(50, 0xdd);
    EXPECT_EQ(toHex(crypto::hmacSha256(key, msg)),
              "773ea91e36800e46854db8ebd09181a7"
              "2959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 4 (25-byte counting key).
TEST(HmacSha256, Rfc4231Case4)
{
    Bytes key = fromHex("0102030405060708090a0b0c0d0e0f10111213141516171819");
    Bytes msg(50, 0xcd);
    EXPECT_EQ(toHex(crypto::hmacSha256(key, msg)),
              "82558a389a443c0ea4cc819899f2083a"
              "85f0faa3e578f8077a2e3ff46729665b");
}

// RFC 4231 test case 5: output truncated to 128 bits, the same
// truncation the A3 integrity tag uses.
TEST(HmacSha256, Rfc4231Case5Truncated)
{
    Bytes key(20, 0x0c);
    std::string m = "Test With Truncation";
    Bytes msg(m.begin(), m.end());
    Bytes mac = crypto::HmacSha256(key).mac(msg);
    mac.resize(16);
    EXPECT_EQ(toHex(mac), "a3b6167473100ee06e0c796c2955552b");
}

// RFC 4231 test case 7 (key and message both longer than a block).
TEST(HmacSha256, Rfc4231Case7)
{
    Bytes key(131, 0xaa);
    std::string m = "This is a test using a larger than block-size key "
                    "and a larger than block-size data. The key needs "
                    "to be hashed before being used by the HMAC "
                    "algorithm.";
    Bytes msg(m.begin(), m.end());
    EXPECT_EQ(toHex(crypto::hmacSha256(key, msg)),
              "9b09ffa71b942fcb27635fbcd5b0e944"
              "bfdc63644f0713938a7f51535c3a35e2");
}

// The keyed hasher's cached midstates must reproduce the one-shot
// MAC for keys on both sides of the block size, whole or streamed.
TEST(HmacSha256, KeyedMatchesOneShot)
{
    sim::Rng rng(7);
    for (size_t keyLen : {0, 1, 32, 64, 65, 131}) {
        Bytes key = rng.bytes(keyLen);
        crypto::HmacSha256 keyed(key);
        for (size_t msgLen : {0, 1, 40, 55, 56, 64, 119, 1000}) {
            Bytes msg = rng.bytes(msgLen);
            Bytes expected = crypto::hmacSha256(key, msg);
            EXPECT_EQ(keyed.mac(msg), expected)
                << "key " << keyLen << " msg " << msgLen;

            size_t split = msgLen / 3;
            crypto::Sha256 h = keyed.begin();
            h.update(msg.data(), split);
            h.update(msg.data() + split, msgLen - split);
            Bytes streamed(crypto::kSha256DigestSize);
            keyed.finish(h, streamed.data());
            EXPECT_EQ(streamed, expected)
                << "key " << keyLen << " msg " << msgLen;
        }
    }
}

namespace
{

/** RAII tier override; clears back to the cpuid probe on exit. */
struct ForcedTier
{
    explicit ForcedTier(crypto::SimdTier tier)
    {
        crypto::overrideSimdTierForTest(static_cast<int>(tier));
    }
    ~ForcedTier() { crypto::overrideSimdTierForTest(-1); }
};

bool
shaNiSupported()
{
    const crypto::CpuFeatures &f = crypto::cpuFeatures();
    return f.sha && f.sse41 && f.ssse3;
}

/** Digest of @p data fed in at @p splits, by a hasher built under
 * @p tier. */
Bytes
digestUnder(crypto::SimdTier tier, const Bytes &data,
            const std::vector<size_t> &splits)
{
    ForcedTier forced(tier);
    Sha256 h;
    size_t off = 0;
    for (size_t cut : splits) {
        h.update(data.data() + off, cut - off);
        off = cut;
    }
    h.update(data.data() + off, data.size() - off);
    return h.finalize();
}

} // namespace

TEST(Sha256Dispatch, ScalarTierSelectsScalar)
{
    ForcedTier forced(crypto::SimdTier::kNone);
    EXPECT_STREQ(crypto::sha256ImplName(), "scalar");
}

TEST(Sha256Dispatch, ShaNiSelectedWhenSupported)
{
    if (!shaNiSupported())
        GTEST_SKIP() << "CPU lacks SHA-NI";
    ForcedTier forced(crypto::SimdTier::kAesniClmul);
    EXPECT_STREQ(crypto::sha256ImplName(), "sha-ni");
}

// CCAI_NO_SIMD forces the scalar routine. The probe is cached per
// process, so this only asserts when the variable was set before the
// binary started; CI runs the binary a second time with it set.
TEST(Sha256Dispatch, EnvVarForcesScalar)
{
    const char *env = std::getenv("CCAI_NO_SIMD");
    if (!env || env[0] == '\0' || (env[0] == '0' && env[1] == '\0'))
        GTEST_SKIP() << "CCAI_NO_SIMD not set";
    crypto::overrideSimdTierForTest(-1);
    EXPECT_STREQ(crypto::sha256ImplName(), "scalar");
}

// SHA-NI must be a bit-exact replacement for the scalar compress:
// random lengths across block boundaries, random streaming splits.
TEST(Sha256Parity, ShaNiMatchesScalar)
{
    if (!shaNiSupported())
        GTEST_SKIP() << "CPU lacks SHA-NI";
    sim::Rng rng(0x5A);
    for (int iter = 0; iter < 300; ++iter) {
        size_t len = iter < 130 ? iter : rng.uniform(0, 4096);
        Bytes data = rng.bytes(len);
        std::vector<size_t> splits;
        size_t nsplits = rng.uniform(0, 4);
        for (size_t i = 0; i < nsplits; ++i)
            splits.push_back(rng.uniform(0, len));
        std::sort(splits.begin(), splits.end());
        Bytes scalar =
            digestUnder(crypto::SimdTier::kNone, data, splits);
        Bytes shaNi =
            digestUnder(crypto::SimdTier::kAesniClmul, data, splits);
        ASSERT_EQ(toHex(shaNi), toHex(scalar)) << "len " << len;
    }
}

// The keyed midstates carry the routine they were built with; a MAC
// must not depend on which one that was.
TEST(Sha256Parity, KeyedMacMatchesAcrossTiers)
{
    if (!shaNiSupported())
        GTEST_SKIP() << "CPU lacks SHA-NI";
    sim::Rng rng(0x5B);
    Bytes key = rng.bytes(32);
    Bytes msg = rng.bytes(40);
    Bytes scalar, shaNi;
    {
        ForcedTier forced(crypto::SimdTier::kNone);
        scalar = crypto::HmacSha256(key).mac(msg);
    }
    {
        ForcedTier forced(crypto::SimdTier::kAesniClmul);
        shaNi = crypto::HmacSha256(key).mac(msg);
    }
    EXPECT_EQ(shaNi, scalar);
    EXPECT_EQ(scalar, crypto::hmacSha256(key, msg));
}
