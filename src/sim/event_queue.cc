/**
 * @file
 * Indexed 4-ary min-heap event kernel. See event_queue.hh for the
 * ordering contract.
 */

#include "sim/event_queue.hh"

#include <algorithm>

namespace ccai::sim
{

namespace
{

constexpr std::size_t kArity = 4;

void
panicIfPast(Tick when, Tick now)
{
    if (when < now)
        panic("scheduling event in the past (%llu < %llu)",
              (unsigned long long)when, (unsigned long long)now);
}

} // namespace

/** Slab-recycled wrapper backing the closure schedule() API. */
class EventQueue::OneShotEvent final : public Event
{
  public:
    OneShotEvent() { flags_ = kManaged; }

    void process() override { fn_(); }
    const char *name() const override { return "one-shot"; }

    std::function<void()> fn_;
    OneShotEvent *nextFree_ = nullptr;
};

Event::~Event()
{
    if (scheduled() && queue_)
        queue_->deschedule(this);
}

EventQueue::EventQueue() = default;

EventQueue::~EventQueue()
{
    // Unhook every still-scheduled owned event so its destructor does
    // not chase a dead queue. Slab nodes are freed with the slabs.
    unhookAll();
}

void
EventQueue::unhookAll()
{
    for (const Slot &s : heap_) {
        s.ev->slot_ = Event::kUnscheduled;
        s.ev->queue_ = nullptr;
    }
}

// ---- heap maintenance ----

std::uint64_t
EventQueue::nextKey(const Event *ev)
{
    ccai_assert(nextSeq_ < (std::uint64_t(1) << kSeqBits));
    const auto prio = static_cast<std::uint64_t>(ev->prio_ + 0x8000);
    return prio << kSeqBits | nextSeq_++;
}

void
EventQueue::place(std::size_t i, const Slot &s)
{
    heap_[i] = s;
    s.ev->slot_ = static_cast<std::uint32_t>(i);
}

void
EventQueue::siftUp(std::size_t i, Slot s)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!(s < heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, s);
}

void
EventQueue::siftDown(std::size_t i, Slot s)
{
    const std::size_t n = heap_.size();
    for (std::size_t c = i * kArity + 1; c < n; c = i * kArity + 1) {
        std::size_t best = c;
        for (std::size_t j = c + 1; j < std::min(c + kArity, n); ++j)
            if (heap_[j] < heap_[best])
                best = j;
        if (!(heap_[best] < s))
            break;
        place(i, heap_[best]);
        i = best;
    }
    place(i, s);
}

/** Restore heap order after the key of slot @p i changed. */
void
EventQueue::fix(std::size_t i)
{
    const Slot s = heap_[i];
    if (i > 0 && s < heap_[(i - 1) / kArity])
        siftUp(i, s);
    else
        siftDown(i, s);
}

Event *
EventQueue::popTop()
{
    Event *top = heap_[0].ev;
    const Slot last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
        // Floyd: walk the root hole down to a leaf along the smallest
        // children, then sift the old last slot up from there. Timer
        // keys mostly belong near the bottom, so this saves the
        // comparison against the moving slot at every level.
        std::size_t hole = 0;
        for (std::size_t c = 1; c < n; c = hole * kArity + 1) {
            std::size_t best = c;
            for (std::size_t j = c + 1; j < std::min(c + kArity, n); ++j)
                if (heap_[j] < heap_[best])
                    best = j;
            place(hole, heap_[best]);
            hole = best;
        }
        siftUp(hole, last);
    }
    top->slot_ = Event::kUnscheduled;
    return top;
}

// ---- scheduling API ----

void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->scheduled())
        panic("scheduling an already-scheduled event (%s)",
              ev->name());
    panicIfPast(when, now_);
    ev->when_ = when;
    ev->queue_ = this;
    ++stats_.scheduled;
    heap_.push_back({when, nextKey(ev), ev});
    siftUp(heap_.size() - 1, heap_.back());
    stats_.maxPending = std::max<std::uint64_t>(stats_.maxPending,
                                                heap_.size());
}

void
EventQueue::deschedule(Event *ev)
{
    ccai_assert(ev->scheduled());
    ccai_assert(ev->queue_ == this);
    const std::size_t i = ev->slot_;
    const Slot last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
        heap_[i] = last;
        fix(i);
    }
    ev->slot_ = Event::kUnscheduled;
    ++stats_.cancelled;
    if (ev->flags_ & Event::kManaged)
        releaseOneShot(static_cast<OneShotEvent *>(ev));
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (!ev->scheduled()) {
        schedule(ev, when);
        return;
    }
    ccai_assert(ev->queue_ == this);
    panicIfPast(when, now_);
    ++stats_.cancelled;
    ++stats_.scheduled;
    ev->when_ = when;
    Slot &s = heap_[ev->slot_];
    s.when = when;
    s.key = nextKey(ev);
    fix(ev->slot_);
}

void
EventQueue::schedule(Tick when, Callback cb, EventPriority prio)
{
    panicIfPast(when, now_);
    OneShotEvent *ev = allocOneShot();
    ev->fn_ = std::move(cb);
    ev->prio_ = static_cast<std::int16_t>(prio);
    schedule(ev, when);
}

// ---- one-shot slab ----

EventQueue::OneShotEvent *
EventQueue::allocOneShot()
{
    if (freeHead_ == nullptr) {
        slabs_.push_back(std::make_unique<OneShotEvent[]>(kSlabSize));
        OneShotEvent *slab = slabs_.back().get();
        for (std::uint32_t i = 0; i < kSlabSize; ++i) {
            slab[i].nextFree_ = freeHead_;
            freeHead_ = &slab[i];
        }
    }
    OneShotEvent *ev = freeHead_;
    freeHead_ = ev->nextFree_;
    ++liveOneShots_;
    return ev;
}

void
EventQueue::releaseOneShot(OneShotEvent *ev)
{
    ev->fn_ = nullptr; // drop captured state now, not at reuse
    ev->queue_ = nullptr;
    ev->nextFree_ = freeHead_;
    freeHead_ = ev;
    --liveOneShots_;
}

// ---- execution ----

void
EventQueue::dispatch(Event *ev)
{
    now_ = ev->when_;
    ++stats_.dispatched;
    if (ev->flags_ & Event::kManaged) {
        auto *os = static_cast<OneShotEvent *>(ev);
        os->process();
        releaseOneShot(os);
    } else {
        ev->process();
    }
}

std::uint64_t
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t processed = 0;
    for (; processed < limit && !heap_.empty(); ++processed)
        dispatch(popTop());
    return processed;
}

std::uint64_t
EventQueue::runUntil(Tick until)
{
    std::uint64_t processed = 0;
    for (; !heap_.empty() && heap_[0].when <= until; ++processed)
        dispatch(popTop());
    if (now_ < until)
        now_ = until;
    return processed;
}

void
EventQueue::reset()
{
    unhookAll();
    std::vector<Slot>().swap(heap_);

    // Actually release memory: the one-shot slabs (and any captured
    // state still inside recycled nodes) go back to the allocator.
    slabs_.clear();
    freeHead_ = nullptr;
    liveOneShots_ = 0;

    now_ = 0;
    nextSeq_ = 0;
    stats_ = Stats{};
}

void
EventQueue::shrink()
{
    if (liveOneShots_ != 0)
        return;
    slabs_.clear();
    freeHead_ = nullptr;
    heap_.shrink_to_fit();
}

EventQueue::Stats
EventQueue::snapshotStats() const
{
    Stats s = stats_;
    s.pending = heap_.size();
    s.oneShotCapacity = oneShotCapacity();
    s.oneShotLive = liveOneShots_;
    return s;
}

} // namespace ccai::sim
