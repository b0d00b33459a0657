// Small work-stealing thread pool — the execution substrate under the
// batched probe path and the multi-circuit batch_session.
//
// Design: one queue per worker (mutex-guarded deque). submit() places a
// task on a queue round-robin; a worker pops its own queue from the back
// (LIFO, cache-warm) and steals from other queues at the front (FIFO,
// oldest first) when its own runs dry. parallel_for() is the structured
// entry point every caller in this codebase uses: it turns [0, count)
// into self-scheduling stealable tasks, has the calling thread
// participate (so a pool of size 1 still makes progress with zero context
// switches), and rethrows the first exception a task raised.
//
// Determinism contract: parallel_for assigns *work items* dynamically but
// the item -> result mapping is fixed by index, so any caller that writes
// results[i] from item i gets thread-count-independent output. All
// parallel paths in this repo (batched PREPARE, batch_session) follow
// that pattern.
//
// Ownership: there is no process-wide pool. Every parallel loop runs on a
// pool its caller owns and passes down (batch_session's, the CLI's, a
// bench's or a test's), so a process runs only the threads it asked for.

#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace wrpt {

class thread_pool {
public:
    /// 0 = one worker per hardware thread. The pool keeps `threads`
    /// workers; the thread calling parallel_for() helps as an extra.
    explicit thread_pool(unsigned threads = 0);
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /// Run `fn(i)` for every i in [0, count). Items are claimed off one
    /// atomic counter by the workers and the calling thread, so load
    /// balances like stealing at item granularity. Blocks until every
    /// item has run; the first exception any item threw is rethrown.
    void parallel_for(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

    /// Submit one fire-and-forget task. Use wait_idle() to join.
    void submit(std::function<void()> fn);

    /// Block until every submitted task has finished. Exceptions from
    /// submitted tasks are swallowed into std::terminate avoidance only —
    /// prefer parallel_for, which propagates them.
    void wait_idle();

private:
    struct queue {
        wrpt::mutex mutex;
        std::deque<std::function<void()>> tasks WRPT_GUARDED_BY(mutex);
    };

    bool try_pop(std::size_t self, std::function<void()>& out);
    void worker_loop(std::size_t self);

    std::vector<std::unique_ptr<queue>> queues_;
    std::vector<std::thread> workers_;
    wrpt::mutex idle_mutex_;
    wrpt::condition_variable work_cv_;  // new work or shutdown
    wrpt::condition_variable idle_cv_;  // pending_ reached zero
    std::size_t pending_ WRPT_GUARDED_BY(idle_mutex_) = 0;     // not yet done
    std::size_t next_queue_ WRPT_GUARDED_BY(idle_mutex_) = 0;  // round-robin
    bool stop_ WRPT_GUARDED_BY(idle_mutex_) = false;
};

}  // namespace wrpt
