/**
 * @file
 * Google-benchmark microbenchmarks of the crypto substrate: AES
 * block throughput, AES-GCM seal/open across payload sizes, SHA-256
 * (dispatched and scalar-forced) and HMAC throughput, the keyed A3
 * MAC, and DH/attestation signing costs. These are
 * host-side (wall-clock) measurements of the functional crypto the
 * simulation uses — not simulated-time measurements.
 *
 * Unless the caller passes its own --benchmark_out, results are also
 * written to BENCH_crypto.json (in the working directory) so the
 * perf trajectory of the crypto data plane is machine-readable
 * across PRs.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "crypto/cpu_features.hh"
#include "crypto/dh.hh"
#include "crypto/gcm.hh"
#include "crypto/sha256.hh"
#include "sim/rng.hh"

using namespace ccai;

static void
BM_AesEncryptBlock(benchmark::State &state)
{
    sim::Rng rng(1);
    crypto::Aes aes(rng.bytes(16));
    Bytes block = rng.bytes(16);
    for (auto _ : state) {
        aes.encryptBlock(block.data());
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesEncryptBlock);

static void
BM_GcmSeal(benchmark::State &state)
{
    sim::Rng rng(2);
    crypto::AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    Bytes payload = rng.bytes(state.range(0));
    for (auto _ : state) {
        auto sealed = gcm.seal(iv, payload);
        benchmark::DoNotOptimize(sealed);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GcmSeal)->Range(256, 64 * 1024);

static void
BM_GcmOpen(benchmark::State &state)
{
    sim::Rng rng(3);
    crypto::AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(12);
    auto sealed = gcm.seal(iv, rng.bytes(state.range(0)));
    for (auto _ : state) {
        auto opened = gcm.open(iv, sealed.ciphertext, sealed.tag);
        benchmark::DoNotOptimize(opened);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GcmOpen)->Range(256, 64 * 1024);

static void
BM_Sha256(benchmark::State &state)
{
    sim::Rng rng(4);
    Bytes payload = rng.bytes(state.range(0));
    for (auto _ : state) {
        Bytes digest = crypto::Sha256::digest(payload);
        benchmark::DoNotOptimize(digest);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Range(64, 64 * 1024);

/** BM_Sha256 with the scalar compress forced (the CCAI_NO_SIMD path). */
static void
BM_Sha256Scalar(benchmark::State &state)
{
    crypto::overrideSimdTierForTest(
        static_cast<int>(crypto::SimdTier::kNone));
    sim::Rng rng(4);
    Bytes payload = rng.bytes(state.range(0));
    for (auto _ : state) {
        Bytes digest = crypto::Sha256::digest(payload);
        benchmark::DoNotOptimize(digest);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
    crypto::overrideSimdTierForTest(-1);
}
BENCHMARK(BM_Sha256Scalar)->Range(64, 64 * 1024);

static void
BM_HmacSha256(benchmark::State &state)
{
    sim::Rng rng(5);
    Bytes key = rng.bytes(32);
    Bytes payload = rng.bytes(state.range(0));
    for (auto _ : state) {
        Bytes mac = crypto::hmacSha256(key, payload);
        benchmark::DoNotOptimize(mac);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(40)->Range(64, 4096);

/**
 * The A3 signed-MMIO MAC as SignIntegrityEngine computes it: cached
 * pad midstates, a 32-byte serialized header plus 8 data bytes fed
 * separately, tag truncated to 16 bytes.
 */
static void
BM_HmacSha256Keyed(benchmark::State &state)
{
    sim::Rng rng(5);
    crypto::HmacSha256 keyed(rng.bytes(32));
    Bytes header = rng.bytes(32);
    Bytes data = rng.bytes(8);
    std::uint8_t mac[crypto::kSha256DigestSize];
    for (auto _ : state) {
        crypto::Sha256 h = keyed.begin();
        h.update(header);
        h.update(data);
        keyed.finish(h, mac);
        benchmark::DoNotOptimize(mac);
    }
    state.SetBytesProcessed(state.iterations() * 40);
}
BENCHMARK(BM_HmacSha256Keyed);

static void
BM_DhKeyExchange(benchmark::State &state)
{
    sim::Rng rng(6);
    crypto::KeyPair alice = crypto::generateKeyPair(rng);
    crypto::KeyPair bob = crypto::generateKeyPair(rng);
    for (auto _ : state) {
        Bytes secret =
            crypto::computeSharedSecret(alice.priv, bob.pub);
        benchmark::DoNotOptimize(secret);
    }
}
BENCHMARK(BM_DhKeyExchange);

static void
BM_AttestationSign(benchmark::State &state)
{
    sim::Rng rng(7);
    crypto::KeyPair kp = crypto::generateKeyPair(rng);
    Bytes msg = rng.bytes(64);
    for (auto _ : state) {
        auto sig = crypto::sign(kp.priv, msg, rng);
        benchmark::DoNotOptimize(sig);
    }
}
BENCHMARK(BM_AttestationSign);

int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out",
                         sizeof("--benchmark_out") - 1) == 0)
            has_out = true;
    }
    static char out_flag[] = "--benchmark_out=BENCH_crypto.json";
    static char fmt_flag[] = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag);
        args.push_back(fmt_flag);
    }

    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    benchmark::AddCustomContext("simd_tier",
                                crypto::simdTierName(crypto::simdTier()));
    benchmark::AddCustomContext("sha256_impl", crypto::sha256ImplName());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
