// Violation fixture: a static pool, even in the pool's own unit, starts
// threads that no option sizes.
class thread_pool {};

thread_pool& process_pool() {
    static thread_pool pool;
    return pool;
}
