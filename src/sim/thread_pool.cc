#include "sim/thread_pool.hh"

#include "sim/logging.hh"

#include <chrono>

namespace odbsim
{

namespace
{

// Identity of the pool/worker currently executing this thread, used
// for nested submission (local-deque push, inline help).
thread_local ThreadPool *tlPool = nullptr;
thread_local unsigned tlWorker = 0;

} // namespace

// ---------------------------------------------------------------------------
// StealDeque

ThreadPool::StealDeque::StealDeque(std::size_t capacity)
{
    if (capacity < 2)
        capacity = 2;
    // Round up to a power of two so index & mask works.
    std::size_t cap = 2;
    while (cap < capacity)
        cap <<= 1;
    current_ = std::make_unique<Array>(cap);
    array_.store(current_.get());
}

ThreadPool::StealDeque::~StealDeque()
{
    // Workers have joined by now; anything still queued was never run
    // (possible only on fatal paths) — free it.
    std::int64_t t = top_.load();
    std::int64_t b = bottom_.load();
    Array *a = array_.load();
    for (std::int64_t i = t; i < b; ++i)
        delete a->cells[static_cast<std::size_t>(i) & a->mask].load();
}

ThreadPool::StealDeque::Array *
ThreadPool::StealDeque::grow(Array *a, std::int64_t top, std::int64_t bottom)
{
    auto bigger = std::make_unique<Array>(a->cap * 2);
    for (std::int64_t i = top; i < bottom; ++i) {
        bigger->cells[static_cast<std::size_t>(i) & bigger->mask].store(
            a->cells[static_cast<std::size_t>(i) & a->mask].load());
    }
    Array *raw = bigger.get();
    retired_.push_back(std::move(current_));
    current_ = std::move(bigger);
    array_.store(raw);
    return raw;
}

void
ThreadPool::StealDeque::push(Task *t)
{
    std::int64_t b = bottom_.load();
    std::int64_t tp = top_.load();
    Array *a = array_.load();
    if (b - tp >= static_cast<std::int64_t>(a->cap))
        a = grow(a, tp, b);
    a->cells[static_cast<std::size_t>(b) & a->mask].store(t);
    bottom_.store(b + 1);
}

ThreadPool::Task *
ThreadPool::StealDeque::pop()
{
    std::int64_t b = bottom_.load() - 1;
    Array *a = array_.load();
    bottom_.store(b);
    std::int64_t t = top_.load();
    if (t > b) {
        // Deque was empty; restore.
        bottom_.store(b + 1);
        return nullptr;
    }
    Task *task = a->cells[static_cast<std::size_t>(b) & a->mask].load();
    if (t != b)
        return task; // more than one element left: no race possible
    // Last element: race against concurrent steal()s via CAS on top.
    bool won = top_.compare_exchange_strong(t, t + 1);
    bottom_.store(b + 1);
    return won ? task : nullptr;
}

ThreadPool::Task *
ThreadPool::StealDeque::steal()
{
    std::int64_t t = top_.load();
    std::int64_t b = bottom_.load();
    if (t >= b)
        return nullptr;
    Array *a = array_.load();
    Task *task = a->cells[static_cast<std::size_t>(t) & a->mask].load();
    if (!top_.compare_exchange_strong(t, t + 1))
        return nullptr; // lost to the owner or another thief
    return task;
}

// ---------------------------------------------------------------------------
// ThreadPool

ThreadPool *
ThreadPool::current()
{
    return tlPool;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    deques_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        deques_.push_back(std::make_unique<StealDeque>());
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(injMutex_);
        if (joined_)
            return;
        stop_ = true;
        joined_ = true;
        ++wakeEpoch_;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::signalWork(bool all)
{
    {
        std::lock_guard<std::mutex> lock(injMutex_);
        ++wakeEpoch_;
    }
    if (all)
        cv_.notify_all();
    else
        cv_.notify_one();
}

void
ThreadPool::submitTask(Task *t)
{
    if (tlPool == this) {
        // Nested submission: LIFO-push onto the submitting worker's
        // own deque; idle peers steal from the top (FIFO).
        deques_[tlWorker]->push(t);
        signalWork(false);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(injMutex_);
        if (stop_) {
            delete t;
            odbsim_fatal("ThreadPool: submit after shutdown");
        }
        injection_.push_back(t);
        ++wakeEpoch_;
    }
    cv_.notify_one();
}

ThreadPool::Task *
ThreadPool::popInjectionLocked()
{
    if (injection_.empty())
        return nullptr;
    Task *t = injection_.front();
    injection_.pop_front();
    return t;
}

ThreadPool::Task *
ThreadPool::findTask(unsigned self)
{
    // 1. Own deque, newest first (cache-warm, nested jobs drain fast).
    if (Task *t = deques_[self]->pop())
        return t;
    // 2. Injection queue, oldest first.
    {
        std::lock_guard<std::mutex> lock(injMutex_);
        if (Task *t = popInjectionLocked())
            return t;
    }
    // 3. Steal sweep over the peers, oldest task first per victim.
    unsigned n = static_cast<unsigned>(deques_.size());
    for (unsigned k = 1; k < n; ++k) {
        if (Task *t = deques_[(self + k) % n]->steal())
            return t;
    }
    return nullptr;
}

void
ThreadPool::runTask(Task *t)
{
    (*t)();
    delete t;
}

void
ThreadPool::runLoop(const std::shared_ptr<ForState> &st)
{
    for (;;) {
        std::size_t i = st->next.fetch_add(1);
        if (i >= st->n)
            break;
        try {
            st->body(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(st->m);
            if (!st->exc || i < st->excIdx) {
                st->exc = std::current_exception();
                st->excIdx = i;
            }
        }
        if (st->done.fetch_add(1) + 1 == st->n) {
            std::lock_guard<std::mutex> lock(st->m);
            st->cv.notify_all();
        }
    }
}

void
ThreadPool::helpUntilDone(const std::shared_ptr<ForState> &st, unsigned self)
{
    // Other runners of this job may still be executing indices on
    // peers; until they finish, keep the core busy with whatever work
    // is available (our deque, injection, steals) — this is what makes
    // nested parallelFor composable instead of deadlocking.
    while (st->done.load() < st->n) {
        if (Task *t = findTask(self)) {
            runTask(t);
            continue;
        }
        std::unique_lock<std::mutex> lock(st->m);
        if (st->done.load() < st->n)
            st->cv.wait_for(lock, std::chrono::milliseconds(1));
    }
}

void
ThreadPool::parallelForImpl(std::size_t n,
                            std::function<void(std::size_t)> fn)
{
    auto st = std::make_shared<ForState>();
    st->n = n;
    st->body = std::move(fn);

    bool onWorker = (tlPool == this);
    std::size_t runners = std::min<std::size_t>(n, size());
    // The calling worker claims indices inline, so spawn one runner
    // fewer; runners left unexecuted after the job drains see
    // next >= n and return immediately (ForState is shared, so a
    // stale runner in a deque can never dangle).
    std::size_t spawn = onWorker ? runners - 1 : runners;

    if (onWorker) {
        unsigned self = tlWorker;
        for (std::size_t r = 0; r < spawn; ++r)
            deques_[self]->push(new Task([st] { tlPool->runLoop(st); }));
        if (spawn > 0)
            signalWork(true);
        runLoop(st);
        helpUntilDone(st, self);
    } else {
        {
            std::lock_guard<std::mutex> lock(injMutex_);
            if (stop_)
                odbsim_fatal("ThreadPool: parallelFor after shutdown");
            for (std::size_t r = 0; r < spawn; ++r)
                injection_.push_back(new Task([st] { tlPool->runLoop(st); }));
            ++wakeEpoch_;
        }
        cv_.notify_all();
        std::unique_lock<std::mutex> lock(st->m);
        st->cv.wait(lock, [&] { return st->done.load() >= st->n; });
    }

    if (st->exc)
        std::rethrow_exception(st->exc);
}

void
ThreadPool::workerLoop(unsigned id)
{
    tlPool = this;
    tlWorker = id;

    for (;;) {
        if (Task *t = findTask(id)) {
            runTask(t);
            continue;
        }
        // Nothing found: either exit (stopping) or sleep until new
        // work is signalled. The wakeEpoch_ recheck closes the race
        // where work arrives between our empty sweep and the wait.
        std::unique_lock<std::mutex> lock(injMutex_);
        if (stop_) {
            if (Task *t = popInjectionLocked()) {
                lock.unlock();
                runTask(t);
                continue;
            }
            lock.unlock();
            // One more full sweep so a task freshly pushed to a peer's
            // deque (nested spawn during drain) is not stranded.
            if (Task *t = findTask(id)) {
                runTask(t);
                continue;
            }
            return;
        }
        std::uint64_t epoch = wakeEpoch_;
        lock.unlock();
        if (Task *t = findTask(id)) {
            runTask(t);
            continue;
        }
        lock.lock();
        if (wakeEpoch_ == epoch && !stop_)
            cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
}

} // namespace odbsim
