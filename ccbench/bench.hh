/**
 * @file
 * Shared pieces of the ccAI benchmark: the run report, the seeded
 * input generator, the host-time meter with its reference kernel,
 * and the span recorder used by traced runs.
 *
 * Everything here sits outside the simulator. The benchmark only
 * calls the library's public functions and reads its public metrics
 * after a run; spans are recorded around those calls, never inside
 * them.
 */

#ifndef CCBENCH_BENCH_HH
#define CCBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace ccbench
{

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the traced run's span file. */
    std::string outDir = ".bench_out";
    /**
     * Test hook: flip one byte of the expected data before the first
     * readback compare, so the compare must count a failed operation.
     */
    bool corruptCompare = false;
};

/** What a workload hands back to main(). */
struct Report
{
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per violated output check. */
    std::vector<std::string> violations;

    void set(const std::string &name, double value)
    {
        metrics[name] = value;
    }

    /** Record a violated check; it counts as one failed operation. */
    void violate(const std::string &why);

    /** Check @p ok; a false value is a violation. */
    void check(bool ok, const std::string &what)
    {
        if (!ok)
            violate(what);
    }
};

/** Seconds on the host's monotonic clock. */
inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * splitmix64: the benchmark's own input generator. Workload inputs
 * are a pure function of --seed and never touch the library's RNGs.
 */
class InputRng
{
  public:
    explicit InputRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    void fill(std::uint8_t *data, std::size_t len);

    template <class T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** Mix a workload-local stream id into the run seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

double median(std::vector<double> v);

/**
 * Host time of one pass, raw and normalized.
 *
 * On a shared VM, host speed drifts by tens of percent over seconds
 * to minutes, and the drift moves the simulator and a reference
 * kernel of the same kind of work together. The meter therefore
 * brackets every ~0.25 s of measured work with runs of a fixed
 * reference kernel, written here and sharing no code with the
 * library, and divides each segment by the mean of its two
 * brackets. The normalized pass time is in reference-kernel units;
 * it is what end-to-end host cost reports.
 */
class HostMeter
{
  public:
    /** What the reference kernel does; matches the workload's work. */
    enum class Reference
    {
        /** A discrete-event loop of heap-ordered closures over small
         * heap payloads: the event kernel's kind of work. */
        Events,
        /** The same loop plus a copy of 2 x 32 MiB: for workloads
         * that also stream payload bytes through memory. */
        EventsAndBytes,
    };

    explicit HostMeter(Reference ref) : ref_(ref) {}

    /** Start a pass: one reference run opens the first segment. */
    void beginPass();

    /** Time @p fn as measured work; returns its host seconds. */
    template <class F>
    double
    measure(F &&fn)
    {
        double t0 = hostNow();
        fn();
        double dt = hostNow() - t0;
        segment_ += dt;
        raw_ += dt;
        if (segment_ >= kSegmentSeconds)
            closeSegment();
        return dt;
    }

    /**
     * Time @p fn as the pass's set-up, right after beginPass(): its
     * host seconds divided by the reference runs around it and
     * scaled by kNominalReferenceSeconds, i.e. seconds at the
     * reference kernel's nominal speed. The calibration keeps host
     * speed drift out of set-up time, as it does for wall_ref.
     */
    template <class F>
    double
    setUp(F &&fn)
    {
        double t0 = hostNow();
        fn();
        double dt = hostNow() - t0;
        double after = runReference(ref_);
        refs_.push_back(after);
        double scaled =
            dt / (0.5 * (refBefore_ + after)) * nominalSeconds(ref_);
        refBefore_ = after;
        return scaled;
    }

    struct PassTime
    {
        double rawSeconds = 0.0;
        double normalized = 0.0;
    };

    /** Close the open segment and return the pass totals. */
    PassTime endPass();

    /** Median duration of one reference-kernel run so far. */
    double referenceSeconds() const { return median(refs_); }

    /** One run of the reference kernel, in host seconds. */
    static double runReference(Reference ref);

    /**
     * The reference kernel's duration that set-up time is scaled to:
     * its median on the 4-vCPU Intel Xeon VM the benchmark was tuned
     * on. Only the unit depends on it; comparisons do not.
     */
    static double
    nominalSeconds(Reference ref)
    {
        return ref == Reference::Events ? 0.030 : 0.038;
    }

  private:
    static constexpr double kSegmentSeconds = 0.25;
    void closeSegment();

    Reference ref_;
    double refBefore_ = 0.0;
    double segment_ = 0.0;
    double raw_ = 0.0;
    double normalized_ = 0.0;
    std::vector<double> refs_;
};

/**
 * Span recorder for traced runs: host start/end of each call the
 * benchmark makes into a layer, its parent span and the ID of the
 * request or transfer it serves. Spans stay in memory until the
 * run ends.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name;
        const char *layer;
        double start;
        double end;
        int parent;
        std::uint64_t id;
    };

    /** RAII scope; records nothing when the recorder is off. */
    class Scope
    {
      public:
        Scope(Spans &spans, const char *name, const char *layer,
              std::uint64_t id = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        int index_ = -1;
    };

    void setEnabled(bool on) { enabled_ = on; }

    /** Fresh ID for one request or transfer. */
    std::uint64_t newId() { return ++lastId_; }

    /** Host seconds of self time per layer over all spans. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as Chrome trace_event JSON. */
    bool writeChromeTrace(const std::string &path) const;

    std::size_t size() const { return spans_.size(); }

  private:
    bool enabled_ = false;
    std::uint64_t lastId_ = 0;
    int open_ = -1;
    std::vector<Span> spans_;
};

/** Host time of every pass of a run. */
struct PassLog
{
    std::vector<double> raw;
    std::vector<double> normalized;
    std::vector<bool> traced;
    double referenceSeconds = 0.0;
};

/**
 * Run @p pass until --seconds of host time is spent, but at least
 * kMinPasses untraced passes (and, in a traced run, as many traced
 * ones: traced and untraced passes alternate). Each pass is one
 * HostMeter pass under a root span of layer "bench".
 */
PassLog runPasses(const Options &opt, Spans &spans,
                  HostMeter::Reference ref,
                  const std::function<void(int, HostMeter &)> &pass);

/** wall_ref, host.wall_s, host.ref_kernel_ms, trace.overhead_pct. */
void reportHostTime(const PassLog &log, Report &report);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

// ---- workloads (one file each) ----

void runLlmDecode(const Options &opt, Report &report, Spans &spans);
void runSecureCopy(const Options &opt, Report &report, Spans &spans);
void runServeFleet(const Options &opt, Report &report, Spans &spans);

/**
 * Micro pass: one layer function at a time, with inputs shaped like
 * @p workload's, reported as per-layer unit costs.
 */
void runMicroPass(const std::string &workload, Report &report);

} // namespace ccbench

#endif // CCBENCH_BENCH_HH
