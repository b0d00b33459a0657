// Clean fixture: asking the hardware is not spawning a thread, and the
// names in comments and strings are prose.
#include <thread>

// A std::thread per call would bypass the pool.
const char* doc = "no std::thread or std::jthread objects here";

unsigned default_workers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

bool same(std::thread::id a, std::thread::id b) { return a == b; }
