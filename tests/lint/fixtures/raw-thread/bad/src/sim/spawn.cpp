// Violation fixture: raw thread objects outside exec/thread_pool and
// svc/server.
#include <thread>
#include <vector>

void run_all(std::vector<void (*)()>& jobs) {
    std::vector<std::thread> workers;
    for (auto* job : jobs) workers.emplace_back(job);
    for (auto& w : workers) w.join();
}

void run_one(void (*job)()) {
    std::jthread t(job);
}
