#include "exec/thread_pool.h"

#include <atomic>
#include <exception>

namespace wrpt {

thread_pool::thread_pool(unsigned threads) {
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    queues_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        queues_.push_back(std::make_unique<queue>());
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers_.emplace_back([this, t] { worker_loop(t); });
}

thread_pool::~thread_pool() {
    {
        lock_guard lock(idle_mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& w : workers_) w.join();
}

void thread_pool::submit(std::function<void()> fn) {
    std::size_t target;
    {
        lock_guard lock(idle_mutex_);
        ++pending_;
        target = next_queue_++ % queues_.size();
    }
    {
        lock_guard lock(queues_[target]->mutex);
        queues_[target]->tasks.push_back(std::move(fn));
    }
    work_cv_.notify_one();
}

bool thread_pool::try_pop(std::size_t self, std::function<void()>& out) {
    // Own queue from the back (most recently pushed, cache-warm) ...
    {
        queue& q = *queues_[self];
        lock_guard lock(q.mutex);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.back());
            q.tasks.pop_back();
            return true;
        }
    }
    // ... then steal the oldest task from the other queues.
    for (std::size_t k = 1; k < queues_.size(); ++k) {
        queue& q = *queues_[(self + k) % queues_.size()];
        lock_guard lock(q.mutex);
        if (!q.tasks.empty()) {
            out = std::move(q.tasks.front());
            q.tasks.pop_front();
            return true;
        }
    }
    return false;
}

void thread_pool::worker_loop(std::size_t self) {
    for (;;) {
        std::function<void()> task;
        if (!try_pop(self, task)) {
            unique_lock lock(idle_mutex_);
            work_cv_.wait(lock, [this] {
                idle_mutex_.assert_held();  // wait evaluates us locked
                if (stop_) return true;
                for (const auto& q : queues_) {
                    lock_guard ql(q->mutex);
                    if (!q->tasks.empty()) return true;
                }
                return false;
            });
            if (stop_) return;
            continue;
        }
        try {
            task();
        } catch (...) {
            // Fire-and-forget tasks must not take the process down;
            // parallel_for wraps its items and reports through its own
            // channel.
        }
        {
            lock_guard lock(idle_mutex_);
            if (--pending_ == 0) idle_cv_.notify_all();
        }
    }
}

void thread_pool::wait_idle() {
    unique_lock lock(idle_mutex_);
    idle_cv_.wait(lock, [this] {
        idle_mutex_.assert_held();  // wait evaluates us locked
        return pending_ == 0;
    });
}

namespace {

/// Shared state of one parallel_for call. Helpers hold it by shared_ptr,
/// so a helper that only gets scheduled after the call returned (possible
/// under nesting, when all workers were busy) finds the claim counter
/// exhausted and exits without touching freed memory.
struct for_state {
    std::function<void(std::size_t)> fn;
    std::size_t count;
    std::atomic<std::size_t> next{0};       // item claim counter
    std::atomic<std::size_t> completed{0};  // items finished or skipped
    std::atomic<bool> error{false};
    wrpt::mutex mutex;
    std::exception_ptr eptr WRPT_GUARDED_BY(mutex);
    wrpt::condition_variable done_cv;

    /// Claim and run items until the counter is exhausted. After an
    /// error, remaining items are claimed and skipped (still counted), so
    /// `completed == count` remains the single completion condition.
    void drain() {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) return;
            if (!error.load(std::memory_order_acquire)) {
                try {
                    fn(i);
                } catch (...) {
                    lock_guard lock(mutex);
                    if (!eptr) eptr = std::current_exception();
                    error.store(true, std::memory_order_release);
                }
            }
            if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                count) {
                lock_guard lock(mutex);
                done_cv.notify_all();
            }
        }
    }
};

}  // namespace

void thread_pool::parallel_for(std::size_t count,
                               const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    // Items self-schedule off one claim counter; results keyed by item
    // index stay thread-count independent.
    auto state = std::make_shared<for_state>();
    state->fn = fn;
    state->count = count;

    // One stealable task per worker (each drains the shared counter), and
    // the caller drains alongside them. The caller never blocks on helper
    // *scheduling* — only on items already claimed — so nesting a
    // parallel_for inside a pool task cannot deadlock: the inner caller
    // simply drains its items itself when no worker is free.
    const std::size_t helpers =
        std::min<std::size_t>(size(), count > 1 ? count - 1 : 0);
    for (std::size_t t = 0; t < helpers; ++t)
        submit([state] { state->drain(); });
    state->drain();
    std::exception_ptr eptr;
    {
        unique_lock lock(state->mutex);
        state->done_cv.wait(lock, [&] {
            return state->completed.load(std::memory_order_acquire) == count;
        });
        eptr = state->eptr;
    }
    if (eptr) std::rethrow_exception(eptr);
}

}  // namespace wrpt
