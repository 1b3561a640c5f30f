#include "worker_pool.hh"

#include <algorithm>

namespace ccai::crypto
{

int
WorkerPool::defaultWorkerCount()
{
    unsigned hc = std::thread::hardware_concurrency();
    // Even on a single-core host keep a couple of real workers: the
    // pool's value there is exercising the concurrent code paths
    // (and TSan), not speedup. The ceiling tracks the widest sharded
    // data-plane configuration (16 lanes).
    return std::clamp<int>(static_cast<int>(hc), 2, 16);
}

WorkerPool::WorkerPool(int maxWorkers)
    : maxWorkers_(std::max(1, maxWorkers))
{
    workers_.reserve(static_cast<std::size_t>(maxWorkers_));
    for (int i = 0; i < maxWorkers_; ++i)
        workers_.push_back(std::make_unique<Worker>());
}

WorkerPool::~WorkerPool()
{
    stopping_.store(true, std::memory_order_relaxed);
    for (auto &w : workers_) {
        {
            std::lock_guard<std::mutex> lock(w->mutex);
        }
        w->cv.notify_all();
        if (w->started)
            w->thread.join();
    }
}

int
WorkerPool::spawnedWorkers() const
{
    int n = 0;
    for (const auto &w : workers_)
        n += w->started ? 1 : 0;
    return n;
}

void
WorkerPool::ensureWorker(std::size_t index)
{
    Worker &w = *workers_[index];
    if (!w.started) {
        w.started = true;
        w.thread = std::thread([this, &w] { workerLoop(w); });
    }
}

void
WorkerPool::workerLoop(Worker &w)
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(w.mutex);
            w.cv.wait(lock, [&] {
                return !w.ring.empty() ||
                       stopping_.load(std::memory_order_relaxed);
            });
            if (w.ring.empty())
                return; // stopping
            task = w.ring.front();
            w.ring.erase(w.ring.begin());
            w.queueWaitNs.sample(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - task.enqueued)
                    .count()));
        }
        if (task.jobs != nullptr) {
            // runJobs lane: claim from the shared submission cursor
            // until it runs dry, then retire the lane.
            JobBatch &jobs = *task.jobs;
            jobLane(jobs);
            workerRanges_.fetch_add(1, std::memory_order_relaxed);
            // Retire the lane under the mutex the dispatcher reads the
            // count under: once it sees zero it returns and unwinds
            // the stack-held batch, which this lane must not touch.
            std::lock_guard<std::mutex> lock(jobs.doneMutex);
            if (jobs.pendingLanes.fetch_sub(
                    1, std::memory_order_acq_rel) == 1)
                jobs.doneCv.notify_all();
            continue;
        }
        runRange(task);
        workerRanges_.fetch_add(1, std::memory_order_relaxed);
        Batch &batch = *task.batch;
        std::lock_guard<std::mutex> lock(batch.doneMutex); // as above
        if (batch.pendingRanges.fetch_sub(
                1, std::memory_order_acq_rel) == 1)
            batch.doneCv.notify_all();
    }
}

void
WorkerPool::jobLane(JobBatch &jobs)
{
    for (;;) {
        std::size_t i =
            jobs.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.n)
            return;
        (*jobs.fn)(i);
        jobsExecuted_.fetch_add(1, std::memory_order_relaxed);
        // The ring is sized >= n, so a push can only transiently
        // fail while another producer is mid-publish.
        while (!jobs.completions->tryPush(i))
            std::this_thread::yield();
    }
}

void
WorkerPool::runRange(const Task &task)
{
    for (std::size_t i = task.begin; i < task.end; ++i)
        (*task.batch->fn)(i);
}

void
WorkerPool::parallelFor(std::size_t n, int width,
                        const std::function<void(std::size_t)> &fn)
{
    std::size_t lanes = static_cast<std::size_t>(std::max(1, width));
    lanes = std::min(lanes, n);
    if (lanes <= 1) {
        ++inlineBatches_;
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    ++parallelBatches_;
    Batch batch;
    batch.fn = &fn;
    batch.pendingRanges.store(lanes - 1, std::memory_order_relaxed);

    // Contiguous split; lane 0 stays on the caller. Lane k always
    // maps to ring (k-1) % workers so the decomposition — and with
    // it every per-index result — is a pure function of (n, width).
    std::vector<Task> mine;
    for (std::size_t k = 0; k < lanes; ++k) {
        Task task;
        task.batch = &batch;
        task.begin = n * k / lanes;
        task.end = n * (k + 1) / lanes;
        if (k == 0) {
            mine.push_back(task);
            continue;
        }
        std::size_t widx =
            (k - 1) % static_cast<std::size_t>(maxWorkers_);
        ensureWorker(widx);
        Worker &w = *workers_[widx];
        {
            std::lock_guard<std::mutex> lock(w.mutex);
            task.enqueued = std::chrono::steady_clock::now();
            w.ring.push_back(task);
        }
        w.cv.notify_one();
    }

    runRange(mine.front());

    std::unique_lock<std::mutex> lock(batch.doneMutex);
    batch.doneCv.wait(lock, [&] {
        return batch.pendingRanges.load(std::memory_order_acquire) ==
               0;
    });
}

void
WorkerPool::runJobs(std::size_t n, int width,
                    const std::function<void(std::size_t)> &fn,
                    const std::function<void(std::size_t)> &commit)
{
    std::size_t lanes = static_cast<std::size_t>(std::max(1, width));
    lanes = std::min(lanes, n);
    if (lanes <= 1) {
        ++inlineBatches_;
        for (std::size_t i = 0; i < n; ++i) {
            fn(i);
            commit(i);
        }
        return;
    }

    ++jobBatches_;
    MpmcRing<std::size_t> completions(n);
    JobBatch jobs;
    jobs.fn = &fn;
    jobs.n = n;
    jobs.completions = &completions;

    // Caller is one lane; the rest go to the worker rings. Lane
    // placement only affects wall-clock scheduling: job claim order
    // comes off one shared cursor and commit order is forced below,
    // so results are a pure function of n — not of width or timing.
    std::size_t workerLanes =
        std::min(lanes - 1, static_cast<std::size_t>(maxWorkers_));
    jobs.pendingLanes.store(workerLanes, std::memory_order_relaxed);
    for (std::size_t k = 0; k < workerLanes; ++k) {
        ensureWorker(k);
        Worker &w = *workers_[k];
        Task task;
        task.jobs = &jobs;
        {
            std::lock_guard<std::mutex> lock(w.mutex);
            task.enqueued = std::chrono::steady_clock::now();
            w.ring.push_back(task);
        }
        w.cv.notify_one();
    }

    // Caller lane: interleave claiming jobs with reaping and ordered
    // commit, so the serial stage overlaps the parallel one instead
    // of waiting behind a barrier.
    std::vector<bool> done(n, false);
    std::size_t nextCommit = 0;
    auto reap = [&] {
        std::size_t drained = 0;
        std::size_t idx;
        while (completions.tryPop(idx)) {
            done[idx] = true;
            ++drained;
        }
        if (drained > 0)
            ringOccupancy_.sample(drained);
        while (nextCommit < n && done[nextCommit])
            commit(nextCommit++);
    };

    for (;;) {
        std::size_t i =
            jobs.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.n)
            break;
        fn(i);
        jobsExecuted_.fetch_add(1, std::memory_order_relaxed);
        while (!completions.tryPush(i))
            std::this_thread::yield();
        reap();
    }
    while (nextCommit < n) {
        reap();
        if (nextCommit < n)
            std::this_thread::yield();
    }

    // Workers may still be between their last push and retiring the
    // lane; they touch the batch until pendingLanes hits zero, so
    // the stack frame must not unwind before that.
    if (workerLanes > 0) {
        std::unique_lock<std::mutex> lock(jobs.doneMutex);
        jobs.doneCv.wait(lock, [&] {
            return jobs.pendingLanes.load(
                       std::memory_order_acquire) == 0;
        });
    }
    completionHighWater_ =
        std::max(completionHighWater_, completions.highWatermark());
}

obs::Histogram
WorkerPool::queueWaitHistogram() const
{
    obs::Histogram merged;
    for (const auto &w : workers_) {
        std::lock_guard<std::mutex> lock(w->mutex);
        merged.merge(w->queueWaitNs);
    }
    return merged;
}

void
WorkerPool::resetStats()
{
    parallelBatches_ = 0;
    inlineBatches_ = 0;
    workerRanges_ = 0;
    jobBatches_ = 0;
    jobsExecuted_ = 0;
    completionHighWater_ = 0;
    ringOccupancy_.reset();
    for (const auto &w : workers_) {
        std::lock_guard<std::mutex> lock(w->mutex);
        w->queueWaitNs.reset();
    }
}

WorkerPool &
WorkerPool::shared()
{
    static WorkerPool pool;
    return pool;
}

} // namespace ccai::crypto
