#include "bench.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>

#include <sys/resource.h>

namespace ccbench
{

void
Report::violate(const std::string &why)
{
    ++failed;
    violations.push_back(why);
}

std::uint64_t
InputRng::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void
InputRng::fill(std::uint8_t *data, std::size_t len)
{
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t v = next();
        for (int b = 0; b < 8; ++b)
            data[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
    std::uint64_t v = next();
    for (; i < len; ++i, v >>= 8)
        data[i] = static_cast<std::uint8_t>(v);
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    InputRng rng(seed ^ (stream * 0xD1B54A32D192ED03ull));
    return rng.next();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- host meter ----

namespace
{
/** Keeps the reference kernel's result observable, so it runs. */
volatile std::uint64_t referenceSink = 0;
} // namespace

double
HostMeter::runReference(Reference ref)
{
    // A fixed discrete-event loop: 64 in-flight jobs, each event
    // allocating a small payload that a later event hashes and
    // frees. Same kind of work as the simulator's kernel (heap
    // order, std::function closures, small allocations), none of
    // its code.
    struct Ev
    {
        std::uint64_t when;
        std::uint64_t seq;
        std::function<void()> fn;
        bool
        operator<(const Ev &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };
    constexpr std::uint64_t kEvents = 60000;
    std::priority_queue<Ev> queue;
    std::map<std::uint64_t, std::vector<std::uint8_t>> inflight;
    std::uint64_t seq = 0, now = 0, acc = 0;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    auto step = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::function<void(std::uint64_t)> spawn = [&](std::uint64_t id) {
        std::uint64_t r = step();
        inflight[id] = std::vector<std::uint8_t>(
            32 + (r & 127), static_cast<std::uint8_t>(r));
        queue.push(Ev{now + 1 + (r & 1023), seq++, [&, id] {
                          auto it = inflight.find(id);
                          for (std::uint8_t b : it->second)
                              acc = acc * 31 + b;
                          inflight.erase(it);
                      }});
    };

    double t0 = hostNow();
    for (std::uint64_t i = 0; i < 64; ++i)
        queue.push(Ev{i, seq++, [&spawn, i] { spawn(i); }});
    for (std::uint64_t n = 1; !queue.empty() && n <= kEvents; ++n) {
        Ev ev = queue.top();
        queue.pop();
        now = ev.when;
        ev.fn();
        if (n % 2 == 0)
            queue.push(Ev{now + (step() & 63), seq++,
                          [&spawn, n] { spawn(n + kEvents); }});
    }
    if (ref == Reference::EventsAndBytes) {
        // Beyond the last-level cache, so the copy streams DRAM.
        static std::vector<std::uint8_t> src(32u << 20, 1),
            dst(32u << 20);
        for (int r = 0; r < 2; ++r) {
            src[static_cast<std::size_t>(r)] =
                static_cast<std::uint8_t>(acc);
            std::memcpy(dst.data(), src.data(), src.size());
            acc += dst[acc % dst.size()];
        }
    }
    double dt = hostNow() - t0;
    referenceSink = acc;
    return dt;
}

void
HostMeter::beginPass()
{
    segment_ = raw_ = normalized_ = 0.0;
    refBefore_ = runReference(ref_);
    refs_.push_back(refBefore_);
}

void
HostMeter::closeSegment()
{
    double after = runReference(ref_);
    refs_.push_back(after);
    normalized_ += segment_ / (0.5 * (refBefore_ + after));
    refBefore_ = after;
    segment_ = 0.0;
}

HostMeter::PassTime
HostMeter::endPass()
{
    if (segment_ > 0.0)
        closeSegment();
    return {raw_, normalized_};
}

// ---- pass loop ----

PassLog
runPasses(const Options &opt, Spans &spans, HostMeter::Reference ref,
          const std::function<void(int, HostMeter &)> &pass)
{
    constexpr int kMinPasses = 3;
    HostMeter meter(ref);
    PassLog log;
    const double deadline = hostNow() + opt.seconds;
    int untraced = 0, traced = 0;
    for (int i = 0;; ++i) {
        bool enough = untraced >= kMinPasses &&
                      (!opt.trace || traced >= kMinPasses);
        if (enough && hostNow() >= deadline)
            break;
        bool tracing = opt.trace && i % 2 == 1;
        spans.setEnabled(tracing);
        meter.beginPass();
        {
            Spans::Scope root(spans, "pass", "bench");
            pass(i, meter);
        }
        HostMeter::PassTime t = meter.endPass();
        spans.setEnabled(false);
        log.raw.push_back(t.rawSeconds);
        log.normalized.push_back(t.normalized);
        log.traced.push_back(tracing);
        ++(tracing ? traced : untraced);
    }
    log.referenceSeconds = meter.referenceSeconds();
    return log;
}

void
reportHostTime(const PassLog &log, Report &report)
{
    std::vector<double> raw, norm, tracedNorm;
    for (std::size_t i = 0; i < log.raw.size(); ++i) {
        if (log.traced[i]) {
            tracedNorm.push_back(log.normalized[i]);
            continue;
        }
        raw.push_back(log.raw[i]);
        norm.push_back(log.normalized[i]);
    }
    report.set("wall_ref", median(norm));
    report.set("host.wall_s", median(raw));
    report.set("host.ref_kernel_ms", log.referenceSeconds * 1e3);
    if (!tracedNorm.empty())
        report.set("trace.overhead_pct",
                   100.0 * (median(tracedNorm) / median(norm) - 1.0));
}

// ---- spans ----

Spans::Scope::Scope(Spans &spans, const char *name, const char *layer,
                    std::uint64_t id)
    : spans_(spans)
{
    if (!spans_.enabled_)
        return;
    index_ = static_cast<int>(spans_.spans_.size());
    spans_.spans_.push_back(
        Span{name, layer, hostNow(), 0.0, spans_.open_, id});
    spans_.open_ = index_;
}

Spans::Scope::~Scope()
{
    if (index_ < 0)
        return;
    Span &s = spans_.spans_[static_cast<std::size_t>(index_)];
    s.end = hostNow();
    spans_.open_ = s.parent;
}

std::map<std::string, double>
Spans::selfSeconds() const
{
    // Children nest strictly inside their parent (scopes are RAII on
    // one thread), so self time is duration minus child durations.
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childTime[static_cast<std::size_t>(s.parent)] +=
                s.end - s.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].layer] +=
            spans_[i].end - spans_[i].start - childTime[i];
    return self;
}

bool
Spans::writeChromeTrace(const std::string &path) const
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f)
        return false;
    double origin = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(f.get(), "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f.get(),
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%zu,\"parent\":%d,"
                     "\"id\":%llu}}\n",
                     i ? "," : "", s.name, s.layer,
                     (s.start - origin) * 1e6, (s.end - s.start) * 1e6,
                     i, s.parent,
                     static_cast<unsigned long long>(s.id));
    }
    std::fprintf(f.get(), "],\"displayTimeUnit\":\"ms\"}\n");
    return std::ferror(f.get()) == 0;
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6; // KiB -> MB
}

} // namespace ccbench
