// Clean fixture: the server's reactor is its own thread.
#include <thread>

struct server {
    std::thread reactor_;
    void start() { reactor_ = std::thread([] {}); }
};
