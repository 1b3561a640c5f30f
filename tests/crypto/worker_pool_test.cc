/**
 * @file
 * Worker-pool and parallel-GCM tests: the parallel data plane must
 * produce bit-identical ciphertexts and tags at any lane count, and
 * the pool itself must complete every index exactly once regardless
 * of how lanes map onto physical threads.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "common/bytes_util.hh"
#include "crypto/gcm.hh"
#include "crypto/worker_pool.hh"
#include "sim/rng.hh"

using namespace ccai;
using crypto::AesGcm;
using crypto::WorkerPool;

TEST(WorkerPool, RunsEveryIndexExactlyOnce)
{
    WorkerPool pool(3);
    for (int width : {1, 2, 3, 8}) {
        std::vector<std::atomic<int>> hits(257);
        for (auto &h : hits)
            h = 0;
        pool.parallelFor(hits.size(), width,
                         [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i], 1) << "index " << i << " width "
                                  << width;
    }
}

TEST(WorkerPool, InlineWhenWidthOrCountIsOne)
{
    WorkerPool pool(4);
    std::uint64_t inlineBefore = pool.inlineBatches();
    pool.parallelFor(100, 1, [](std::size_t) {});
    pool.parallelFor(1, 8, [](std::size_t) {});
    pool.parallelFor(0, 8, [](std::size_t) {});
    EXPECT_EQ(pool.inlineBatches(), inlineBefore + 3);
    EXPECT_EQ(pool.parallelBatches(), 0u);
    // Inline batches never spawn threads.
    EXPECT_EQ(pool.spawnedWorkers(), 0);
}

TEST(WorkerPool, WidthBeyondWorkersStillCompletes)
{
    WorkerPool pool(2);
    std::atomic<std::uint64_t> sum{0};
    pool.parallelFor(1000, 16,
                     [&](std::size_t i) { sum += i + 1; });
    EXPECT_EQ(sum, 1000ull * 1001 / 2);
    EXPECT_LE(pool.spawnedWorkers(), 2);
    EXPECT_GE(pool.parallelBatches(), 1u);
    EXPECT_GE(pool.workerRanges(), 1u);
}

TEST(WorkerPool, BackToBackTinyBatchesRetireCleanly)
{
    // Each batch's shared state lives on the dispatcher's stack, and
    // the next batch reuses that stack as soon as the dispatcher
    // returns. Many tiny batches at width 4 make a worker that still
    // touches a retired batch likely; the TSan and ASan jobs flag it.
    WorkerPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    const int kRounds = 2000;
    for (int round = 0; round < kRounds; ++round) {
        pool.parallelFor(4, 4, [&](std::size_t i) { sum += i; });
        pool.runJobs(
            4, 4, [&](std::size_t i) { sum += i; },
            [](std::size_t) {});
    }
    // 0+1+2+3 per batch, two batches per round.
    EXPECT_EQ(sum, 12ull * kRounds);
    EXPECT_EQ(pool.parallelBatches(), std::uint64_t(kRounds));
    EXPECT_EQ(pool.jobBatches(), std::uint64_t(kRounds));
}

TEST(WorkerPool, NestedDispatchFromLaneZeroWorks)
{
    // The Adaptor parallelizes across chunks and, for a single
    // chunk, inside the payload — make sure a dispatch issued while
    // another batch runs on the caller thread completes.
    WorkerPool pool(2);
    std::atomic<int> count{0};
    pool.parallelFor(4, 2, [&](std::size_t i) {
        if (i == 0) {
            // Caller-lane index: issue a nested inline batch.
            pool.parallelFor(8, 1, [&](std::size_t) { ++count; });
        }
        ++count;
    });
    EXPECT_EQ(count, 12);
}

namespace
{

/** Serial-vs-parallel seal/open equivalence at one payload size. */
void
checkEquivalence(size_t len, bool withAad)
{
    sim::Rng rng(0xC0FFEE + len);
    AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(crypto::kGcmIvSize);
    Bytes aad = withAad ? rng.bytes(32) : Bytes{};
    Bytes plain = rng.bytes(len);

    Bytes serial = plain;
    Bytes serialTag(crypto::kGcmTagSize);
    gcm.sealInPlace(iv, serial.data(), serial.size(), aad.data(),
                    aad.size(), serialTag.data());

    WorkerPool pool(4);
    for (int width : {2, 3, 5, 8}) {
        Bytes par = plain;
        Bytes parTag(crypto::kGcmTagSize);
        gcm.sealInPlace(iv, par.data(), par.size(), aad.data(),
                        aad.size(), parTag.data(), pool, width);
        ASSERT_EQ(par, serial) << "len " << len << " width " << width;
        ASSERT_EQ(parTag, serialTag)
            << "len " << len << " width " << width;

        // Parallel open recovers the plaintext and accepts the tag.
        Bytes back = par;
        ASSERT_TRUE(gcm.openInPlace(iv, back.data(), back.size(),
                                    parTag.data(), aad.data(),
                                    aad.size(), pool, width));
        ASSERT_EQ(back, plain);
    }
}

} // namespace

TEST(ParallelGcm, MatchesSerialAcrossSizesAndWidths)
{
    // Below, at, and well above the parallel threshold, including
    // ragged non-block-multiple tails.
    for (size_t len : {size_t{1024}, crypto::kGcmParallelMinBytes - 1,
                       crypto::kGcmParallelMinBytes,
                       size_t{64 * 1024}, size_t{64 * 1024 + 7},
                       size_t{256 * 1024 + 13}})
        checkEquivalence(len, false);
    checkEquivalence(128 * 1024 + 5, true);
}

TEST(ParallelGcm, TamperDetectedAtAnyWidth)
{
    sim::Rng rng(0xBAD);
    AesGcm gcm(rng.bytes(16));
    Bytes iv = rng.bytes(crypto::kGcmIvSize);
    Bytes plain = rng.bytes(96 * 1024);

    Bytes ct = plain;
    Bytes tag(crypto::kGcmTagSize);
    gcm.sealInPlace(iv, ct.data(), ct.size(), nullptr, 0, tag.data());

    WorkerPool pool(4);
    for (int width : {1, 2, 8}) {
        Bytes tampered = ct;
        tampered[tampered.size() / 2] ^= 0x40;
        Bytes work = tampered;
        EXPECT_FALSE(gcm.openInPlace(iv, work.data(), work.size(),
                                     tag.data(), nullptr, 0, pool,
                                     width));
        // Failed open leaves the buffer as ciphertext.
        EXPECT_EQ(work, tampered);
    }
}

TEST(ParallelGcm, MatchesWholeBufferSealApi)
{
    // Cross-check against the copying seal() used by the config
    // path, with a payload large enough to hit the parallel path.
    sim::Rng rng(0x5EA1);
    Bytes key = rng.bytes(16);
    AesGcm gcm(key);
    Bytes iv = rng.bytes(crypto::kGcmIvSize);
    Bytes plain = rng.bytes(200 * 1024);

    auto sealed = gcm.seal(iv, plain);
    WorkerPool pool(4);
    Bytes par = plain;
    Bytes parTag(crypto::kGcmTagSize);
    gcm.sealInPlace(iv, par.data(), par.size(), nullptr, 0,
                    parTag.data(), pool, 8);
    EXPECT_EQ(par, sealed.ciphertext);
    EXPECT_EQ(parTag, sealed.tag);
}
