// Readiness poller under the event-driven serve daemon — one object that
// watches many fds and reports which became readable or writable.
//
// On Linux this is an epoll(7) instance: O(ready) wakeups independent of
// the number of registered connections, which is what lets the reactor
// hold tens of thousands of mostly-idle sessions on one thread. On other
// POSIX platforms the same interface is served by poll(2) over a
// maintained registration table — O(n) per wait, but semantically
// identical (level-triggered: a fd with unread input or writable buffer
// space reports ready on every wait until the condition clears).
//
// Both backends compile on Linux. A global force-poll switch (the
// WRPT_FORCE_POLL environment variable at startup, or set_force_poll()
// from code) makes subsequently constructed pollers use the portable
// poll(2) backend — how CI exercises the fallback path on Linux without
// a second platform. Building with -DWRPT_FORCE_POLL (a CMake option)
// compiles the epoll backend out entirely.
//
// Registration is keyed by an opaque uint64 the caller chooses (the
// reactor uses it to look up the connection record), and interest is a
// (read, write) pair changed with modify() — how the reactor pauses
// reads on a connection whose request queue is full (flow control) and
// arms write interest only while a response tail is stuck in the kernel
// buffer.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

// The epoll backend exists only on Linux and only when it has not been
// compiled out. WRPT_FORCE_POLL (a CMake option) wins over the platform.
#if defined(__linux__) && !defined(WRPT_FORCE_POLL)
#define WRPT_POLLER_HAS_EPOLL 1
#endif

namespace wrpt::svc {

class poller {
public:
    struct event {
        std::uint64_t key = 0;
        bool readable = false;
        bool writable = false;
        /// Peer hung up or the fd errored. Reported alongside readable so
        /// the caller's next read observes the EOF/error directly.
        bool hangup = false;
    };

    poller();   // throws socket_error when the kernel instance cannot open
    ~poller();

    poller(const poller&) = delete;
    poller& operator=(const poller&) = delete;

    /// Register `fd` under `key` with the given interest set.
    void add(int fd, std::uint64_t key, bool read, bool write);
    /// Change the interest set of a registered fd. An empty interest set
    /// (false, false) keeps the registration but reports nothing — how a
    /// paused connection stays owned without spinning a level-triggered
    /// wait.
    void modify(int fd, std::uint64_t key, bool read, bool write);
    void remove(int fd);

    /// Block up to `timeout_ms` (< 0 = forever) and append the ready set
    /// to `out` (cleared first). Returns the number of events. EINTR is
    /// retried internally against the same deadline semantics (a signal
    /// simply re-enters the wait).
    std::size_t wait(std::vector<event>& out, int timeout_ms);

    /// Which backend this instance chose at construction: "epoll" or
    /// "poll".
    const char* backend_name() const;

    /// True when newly constructed pollers will use the poll(2) backend.
    /// Seeded from the WRPT_FORCE_POLL environment variable at startup or
    /// set by set_force_poll(); always effectively true on platforms
    /// without epoll.
    static bool poll_forced();
    /// Force (or stop forcing) the poll(2) backend for pollers constructed
    /// after this call. Existing instances keep the backend they chose.
    static void set_force_poll(bool force);

private:
    struct entry {
        int fd = -1;
        std::uint64_t key = 0;
        bool read = false;
        bool write = false;
    };

    bool use_poll_ = true;
    int epoll_fd_ = -1;            // epoll backend only
    std::vector<entry> entries_;   // poll backend only
};

}  // namespace wrpt::svc
