/**
 * @file
 * Discrete-event simulation kernel: an indexed 4-ary min-heap.
 *
 * The queue orders callbacks by (tick, priority, sequence) — the exact
 * contract of the original priority-queue kernel, kept as
 * LegacyEventQueue, the differential-test oracle. Each heap slot holds
 * the event's tick, a packed (priority, sequence) key and the event
 * pointer, so sifts compare slots without touching the events. Every
 * event records its slot index, which makes deschedule and an in-place
 * reschedule O(log n) with no search.
 *
 * Events are intrusive (Event base class), so components own their
 * recurring timers and re-arm them without any allocation, and
 * cancelled timers leave the queue immediately instead of surviving as
 * generation-counter no-ops. The closure API (schedule(tick,
 * std::function)) is backed by a slab freelist of one-shot wrapper
 * events, recycled after dispatch.
 *
 * Simulated time is entirely decoupled from wall-clock time: the LLM
 * benchmarks report results in simulated seconds.
 */

#ifndef CCAI_SIM_EVENT_QUEUE_HH
#define CCAI_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace ccai::sim
{

class EventQueue;

/** Ordering hint for events scheduled at the same tick. */
enum class EventPriority : int
{
    High = 0,
    Default = 50,
    Low = 100,
};

/**
 * Intrusive schedulable entity. Components derive from Event (or
 * embed an EventFunctionWrapper) for recurring timers: the heap
 * holds a pointer to the object and re-keys it on reschedule, so
 * re-arming an ARQ or watchdog timer allocates nothing.
 *
 * An Event may be scheduled on at most one queue at a time. If it is
 * destroyed while scheduled it deschedules itself, so component
 * teardown with armed timers is safe.
 */
class Event
{
  public:
    explicit Event(EventPriority prio = EventPriority::Default)
        : prio_(static_cast<std::int16_t>(prio))
    {}
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when simulated time reaches when(). */
    virtual void process() = 0;

    /** Debug label. */
    virtual const char *name() const { return "event"; }

    /** Tick this event is scheduled for (valid while scheduled). */
    Tick when() const { return when_; }

    bool scheduled() const { return slot_ != kUnscheduled; }

    int priority() const { return prio_; }

    /** Only legal while unscheduled. */
    void
    setPriority(EventPriority prio)
    {
        ccai_assert(!scheduled());
        prio_ = static_cast<std::int16_t>(prio);
    }

  private:
    friend class EventQueue;

    static constexpr std::uint32_t kUnscheduled = ~std::uint32_t(0);

    static constexpr std::uint8_t kManaged = 1; ///< queue-owned slab node

    Tick when_ = 0;
    EventQueue *queue_ = nullptr;
    /** Index of this event's heap slot, or kUnscheduled. */
    std::uint32_t slot_ = kUnscheduled;
    std::int16_t prio_;
    std::uint8_t flags_ = 0;
};

/**
 * Event carrying a callback set once at construction — the gem5
 * EventFunctionWrapper idiom for component-owned timers: the closure
 * is allocated once per component, not once per arm.
 */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper() = default;
    explicit EventFunctionWrapper(std::function<void()> fn,
                                  const char *name = "wrapped",
                                  EventPriority prio =
                                      EventPriority::Default)
        : Event(prio), fn_(std::move(fn)), name_(name)
    {}

    void
    setCallback(std::function<void()> fn, const char *name = "wrapped")
    {
        ccai_assert(!scheduled());
        fn_ = std::move(fn);
        name_ = name;
    }

    void process() override { fn_(); }
    const char *name() const override { return name_; }

  private:
    std::function<void()> fn_;
    const char *name_ = "wrapped";
};

/**
 * Global event queue with deterministic ordering.
 *
 * Determinism: ties on (tick, priority) break on insertion sequence
 * number, so two runs with identical inputs replay identically.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Event-core counters for the observability plane. */
    struct Stats
    {
        std::uint64_t scheduled = 0;  ///< schedule()/reschedule() calls
        std::uint64_t dispatched = 0; ///< events whose process() ran
        std::uint64_t cancelled = 0;  ///< deschedule()d before firing
        std::uint64_t pending = 0;
        std::uint64_t maxPending = 0; ///< high-watermark of pending
        /** Slab-allocated one-shot wrapper nodes (capacity). */
        std::uint64_t oneShotCapacity = 0;
        std::uint64_t oneShotLive = 0;
    };

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    // ---- intrusive API (owned events) ----

    /** Schedule @p ev to fire at absolute tick @p when. */
    void schedule(Event *ev, Tick when);

    /** Schedule @p ev to fire @p delay ticks from now. */
    void scheduleIn(Event *ev, Tick delay)
    {
        schedule(ev, now_ + delay);
    }

    /** Remove a pending event in O(log n); it simply never fires. */
    void deschedule(Event *ev);

    /** Move a (possibly pending) event to @p when. It takes a fresh
     * sequence number and is counted as one cancel plus one schedule,
     * exactly as deschedule + schedule would be; a pending event is
     * re-keyed in its slot instead of leaving the heap. */
    void reschedule(Event *ev, Tick when);

    void
    rescheduleIn(Event *ev, Tick delay)
    {
        reschedule(ev, now_ + delay);
    }

    // ---- closure API (slab-backed one-shot events) ----

    /** Schedule @p cb to run at absolute tick @p when. */
    void schedule(Tick when, Callback cb,
                  EventPriority prio = EventPriority::Default);

    /** Schedule @p cb to run @p delay ticks from now. */
    void
    scheduleIn(Tick delay, Callback cb,
               EventPriority prio = EventPriority::Default)
    {
        schedule(now_ + delay, std::move(cb), prio);
    }

    // ---- execution ----

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    size_t pending() const { return heap_.size(); }

    /**
     * Run events until the queue drains or @p limit events have been
     * processed.
     *
     * @return number of events processed.
     */
    std::uint64_t run(std::uint64_t limit = UINT64_MAX);

    /** Run events up to and including tick @p until. */
    std::uint64_t runUntil(Tick until);

    /** Tick of the earliest pending event (pending() must be > 0). */
    Tick
    nextEventTick() const
    {
        ccai_assert(!heap_.empty());
        return heap_[0].when;
    }

    /** Advance time with no event processing (test helper). */
    void
    warp(Tick to)
    {
        ccai_assert(to >= now_);
        ccai_assert(empty());
        now_ = to;
    }

    /** Drop all pending events, release the heap and event-node
     * slabs, and reset time, sequence numbers and statistics to
     * zero. */
    void reset();

    /**
     * Release cached one-shot slab memory when no one-shot events are
     * live. Soak tests call this and then assert oneShotCapacity
     * stays bounded across iterations.
     */
    void shrink();

    // ---- statistics ----

    Stats snapshotStats() const;

    std::uint64_t statScheduled() const { return stats_.scheduled; }
    std::uint64_t statDispatched() const { return stats_.dispatched; }
    std::uint64_t statCancelled() const { return stats_.cancelled; }
    std::uint64_t statMaxPending() const { return stats_.maxPending; }
    std::uint64_t oneShotCapacity() const
    {
        return slabs_.size() * kSlabSize;
    }
    std::uint64_t oneShotLive() const { return liveOneShots_; }

  private:
    static constexpr std::uint32_t kSlabSize = 256;
    /** Sequence numbers fill the low 48 bits of a slot key. */
    static constexpr int kSeqBits = 48;

    /** One heap entry; ordered on (when, key). */
    struct Slot
    {
        Tick when;
        /** (priority + 2^15) << 48 | sequence. */
        std::uint64_t key;
        Event *ev;

        bool
        operator<(const Slot &o) const
        {
            return when != o.when ? when < o.when : key < o.key;
        }
    };

    class OneShotEvent;

    std::uint64_t nextKey(const Event *ev);
    void place(std::size_t i, const Slot &s);
    void siftUp(std::size_t i, Slot s);
    void siftDown(std::size_t i, Slot s);
    void fix(std::size_t i);
    Event *popTop();
    void dispatch(Event *ev);
    void unhookAll();

    OneShotEvent *allocOneShot();
    void releaseOneShot(OneShotEvent *ev);

    // ---- state ----
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;

    std::vector<Slot> heap_;

    // One-shot wrapper slabs + freelist.
    std::vector<std::unique_ptr<OneShotEvent[]>> slabs_;
    OneShotEvent *freeHead_ = nullptr;
    std::uint64_t liveOneShots_ = 0;

    Stats stats_;
};

} // namespace ccai::sim

#endif // CCAI_SIM_EVENT_QUEUE_HH
