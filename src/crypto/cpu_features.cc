#include "cpu_features.hh"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

// Older cpuid.h headers miss some leaf-7 crypto bits.
#ifndef bit_VAES
#define bit_VAES (1 << 9)
#endif
#ifndef bit_VPCLMULQDQ
#define bit_VPCLMULQDQ (1 << 10)
#endif
#ifndef bit_SHA
#define bit_SHA (1 << 29)
#endif

namespace ccai::crypto
{

namespace
{

CpuFeatures
probe()
{
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return f;
    f.ssse3 = (ecx & bit_SSSE3) != 0;
    f.sse41 = (ecx & bit_SSE4_1) != 0;
    f.aesni = (ecx & bit_AES) != 0;
    f.pclmul = (ecx & bit_PCLMUL) != 0;

    // The 256-bit tier needs the OS to context-switch YMM state:
    // OSXSAVE set and XCR0 enabling both XMM and YMM saves.
    bool ymmOs = false;
    if (ecx & bit_OSXSAVE) {
        unsigned lo, hi;
        __asm__ volatile(".byte 0x0f, 0x01, 0xd0" // xgetbv
                         : "=a"(lo), "=d"(hi)
                         : "c"(0));
        ymmOs = (lo & 0x6) == 0x6;
    }
    unsigned eax7 = 0, ebx7 = 0, ecx7 = 0, edx7 = 0;
    if (__get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7)) {
        f.avx2 = ymmOs && (ebx7 & bit_AVX2) != 0;
        f.vaes = ymmOs && (ecx7 & bit_VAES) != 0;
        f.vpclmulqdq = ymmOs && (ecx7 & bit_VPCLMULQDQ) != 0;
        f.sha = (ebx7 & bit_SHA) != 0;
    }
#endif
    return f;
}

std::atomic<int> overrideTier{-1};

} // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures f = probe();
    return f;
}

SimdTier
simdTier()
{
    int forced = overrideTier.load(std::memory_order_relaxed);
    if (forced >= 0)
        return static_cast<SimdTier>(forced);
    static const SimdTier probed = [] {
        const char *env = std::getenv("CCAI_NO_SIMD");
        if (env && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0'))
            return SimdTier::kNone;
        const CpuFeatures &f = cpuFeatures();
        if (!(f.aesni && f.pclmul && f.sse41 && f.ssse3))
            return SimdTier::kNone;
        if (f.vaes && f.avx2)
            return SimdTier::kVaes;
        return SimdTier::kAesniClmul;
    }();
    return probed;
}

void
overrideSimdTierForTest(int tier)
{
    overrideTier.store(tier, std::memory_order_relaxed);
}

const char *
simdTierName(SimdTier tier)
{
    switch (tier) {
      case SimdTier::kNone:
        return "table";
      case SimdTier::kAesniClmul:
        return "aesni-clmul";
      case SimdTier::kVaes:
        return "vaes";
    }
    return "unknown";
}

} // namespace ccai::crypto
