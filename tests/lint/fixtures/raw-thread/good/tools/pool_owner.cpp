// Clean fixture: a pool the caller owns and passes down; casts and
// static functions that take a pool are not static pools.
class thread_pool {
public:
    explicit thread_pool(unsigned) {}
};

static void run(thread_pool& pool) { (void)pool; }

int main() {
    thread_pool pool(3);
    void* p = static_cast<void*>(&pool);
    (void)p;
    run(pool);
    return 0;
}
