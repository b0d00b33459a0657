// Clean fixture: the thread pool owns its worker threads.
#pragma once

#include <thread>
#include <vector>

class thread_pool {
    std::vector<std::thread> workers_;
};
