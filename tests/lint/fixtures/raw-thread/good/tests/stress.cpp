// Clean fixture: tests are out of scope and may spawn threads directly.
#include <thread>

void hammer() {
    std::thread t([] {});
    t.join();
}
