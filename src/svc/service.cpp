#include "svc/service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <utility>

#include "exec/engine_pool.h"
#include "gen/suite.h"
#include "io/bench_io.h"
#include "svc/schema.h"
#include "svc/wire.h"
#include "util/error.h"

namespace wrpt::svc {

service::service() : service(options{}) {}

service::service(options opt)
    : options_(opt),
      registry_(registry::options{opt.max_views, opt.tenant_quota}) {
    batch_session::options so;
    so.threads = opt.threads;
    so.confidence = opt.confidence;
    so.max_engines = opt.max_engines;
    session_ = std::make_unique<batch_session>(so);
}

service::~service() = default;

service::cache_counters service::cache_stats() const {
    lock_guard lock(cache_mutex_);
    cache_counters c;
    c.probes = cache_probes_;
    c.hits = cache_hits_;
    c.misses = cache_misses_;
    c.evictions = cache_evictions_;
    c.entries = cache_entries_;
    c.bytes = cache_bytes_;
    return c;
}

response service::handle(const request& q) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    try {
        return std::visit(
            [&](const auto& p) -> response {
                using T = std::decay_t<decltype(p)>;
                if constexpr (std::is_same_v<T, load_circuit_request>) {
                    return handle_load(q.id, p);
                } else if constexpr (std::is_same_v<T,
                                                    register_circuit_request>) {
                    return handle_register(q.id, p);
                } else if constexpr (std::is_same_v<T,
                                                    reload_circuit_request>) {
                    return handle_reload(q.id, p);
                } else if constexpr (std::is_same_v<T, list_circuits_request>) {
                    return handle_list(q.id, p);
                } else if constexpr (std::is_same_v<T, stats_request>) {
                    return handle_stats(q.id);
                } else if constexpr (std::is_same_v<T, evict_request>) {
                    return handle_evict(q.id, p);
                } else if constexpr (std::is_same_v<T, shutdown_request>) {
                    response r;
                    r.id = q.id;
                    r.payload = shutdown_response{};
                    return r;
                } else if constexpr (std::is_same_v<T, matrix_request>) {
                    return handle_matrix(q.id, p);
                } else {
                    // One of the three job kinds: a batch of one, by
                    // reference.
                    const job_ref job{&p};
                    return run_jobs(q.id, {&job, 1}).front();
                }
            },
            q.payload);
    } catch (const registry_error& e) {
        return make_error(q.id, e.what(), e.code());
    } catch (const std::exception& e) {
        return make_error(q.id, e.what());
    }
}

namespace {

/// Shared parse step for load/register/reload: exactly one netlist source
/// (inline .bench text, a file path, or a generated suite circuit).
netlist parse_circuit_source(const char* what, const std::string& bench,
                             const std::string& path, const std::string& suite,
                             const std::string& name) {
    const int sources = (bench.empty() ? 0 : 1) + (path.empty() ? 0 : 1) +
                        (suite.empty() ? 0 : 1);
    require(sources == 1,
            std::string(what) +
                ": exactly one of bench/path/suite must be given");
    netlist nl = !bench.empty()
                     ? read_bench_string(bench, name.empty() ? "bench" : name)
                 : !path.empty() ? read_bench_file(path)
                                 : build_suite_circuit(suite);
    if (!name.empty()) nl.set_name(name);
    return nl;
}

}  // namespace

response service::handle_load(std::uint64_t id,
                              const load_circuit_request& p) {
    netlist nl =
        parse_circuit_source("load_circuit", p.bench, p.path, p.suite, p.name);
    // Growing the circuit table invalidates concurrent readers: wait for
    // in-flight jobs to finish, then mutate exclusively. Parsing and
    // generation above stay outside the lock.
    write_lock session_lock(session_mutex_);
    const std::size_t handle = session_->add_circuit(std::move(nl));

    const netlist& stored = session_->circuit(handle);
    const netlist_stats st = stored.stats();
    load_circuit_response out;
    out.circuit = handle;
    out.name = stored.name();
    out.inputs = st.input_count;
    out.outputs = st.output_count;
    out.gates = st.gate_count;
    out.faults = session_->faults(handle).size();
    out.revision = stored.revision();

    response r;
    r.id = id;
    r.payload = std::move(out);
    return r;
}

response service::handle_register(std::uint64_t id,
                                  const register_circuit_request& p) {
    netlist nl = parse_circuit_source("register_circuit", p.bench, p.path,
                                      p.suite, p.name);
    const netlist_stats st = nl.stats();
    // Registration reserves a handle (reshaping the session's table) but
    // compiles nothing — the first named job pays for the view.
    write_lock session_lock(session_mutex_);
    const registry::registered reg =
        registry_.register_circuit(*session_, p.tenant, p.name, std::move(nl));
    {
        lock_guard cache_lock(cache_mutex_);
        handle_tenant_.try_emplace(reg.handle, p.tenant);
    }
    register_circuit_response out;
    out.tenant = p.tenant;
    out.name = p.name;
    out.circuit = reg.handle;
    out.revision = reg.revision;
    out.inputs = st.input_count;
    out.outputs = st.output_count;
    out.gates = st.gate_count;
    response r;
    r.id = id;
    r.payload = std::move(out);
    return r;
}

response service::handle_reload(std::uint64_t id,
                                const reload_circuit_request& p) {
    netlist nl = parse_circuit_source("reload_circuit", p.bench, p.path,
                                      p.suite, p.name);
    // Exclusive: every in-flight job drains before the swap, so a request
    // only ever observes one revision end to end.
    write_lock session_lock(session_mutex_);
    const registry::reloaded rl =
        registry_.reload_circuit(*session_, p.tenant, p.name, std::move(nl));
    reload_circuit_response out;
    out.tenant = p.tenant;
    out.name = p.name;
    out.circuit = rl.handle;
    out.revision = rl.revision;
    out.old_revision = rl.old_revision;
    out.reloads = rl.reloads;
    response r;
    r.id = id;
    r.payload = std::move(out);
    return r;
}

response service::handle_list(std::uint64_t id,
                              const list_circuits_request& p) {
    read_lock session_lock(session_mutex_);
    list_circuits_response out;
    out.entries = registry_.list(p.tenant);
    response r;
    r.id = id;
    r.payload = std::move(out);
    return r;
}

response service::handle_stats(std::uint64_t id) {
    read_lock session_lock(session_mutex_);
    stats_response out;
    out.requests = requests_.load(std::memory_order_relaxed);
    // Registry before cache: the lock order is session -> registry ->
    // cache, and the per-tenant byte attribution lives under cache_mutex_.
    const registry::counters rc = registry_.stats();
    std::unordered_map<std::string, std::uint64_t>  // wrpt-lint: allow(dense-map)
        tenant_bytes;
    {
        lock_guard cache_lock(cache_mutex_);
        out.cache_probes = cache_probes_;
        out.cache_hits = cache_hits_;
        out.cache_misses = cache_misses_;
        out.cache_entries = cache_entries_;
        out.cache_evictions = cache_evictions_;
        out.cache_bytes = cache_bytes_;
        tenant_bytes = tenant_bytes_;
    }
    out.circuits = session_->circuit_count();
    out.simd_isa = "scalar";
    out.simd_lanes = 1;
    if (rc.circuits > 0) {
        const registry::tenant_quota& q = registry_.config().quota;
        out.registry.present = true;
        out.registry.circuits = rc.circuits;
        out.registry.resident = rc.resident;
        out.registry.max_views = registry_.config().max_views;
        out.registry.view_evictions = rc.view_evictions;
        out.registry.view_rebuilds = rc.view_rebuilds;
        for (const registry::tenant_row& t : rc.tenants) {
            tenant_stats_payload tp;
            tp.tenant = t.tenant;
            tp.circuits = t.circuits;
            const auto bit = tenant_bytes.find(t.tenant);
            tp.cache_bytes = bit == tenant_bytes.end()
                                 ? 0
                                 : static_cast<std::size_t>(bit->second);
            tp.max_circuits = q.max_circuits;
            tp.max_engines = q.max_engines;
            tp.max_cache_bytes = static_cast<std::size_t>(q.max_cache_bytes);
            tp.rejections = t.rejections;
            out.registry.tenants.push_back(std::move(tp));
        }
    }
    for (const std::size_t c : session_->handles()) {
        const engine_pool& pool = session_->pool(c);
        const engine_pool::counters pc = pool.stats();
        pool_stats_payload ps;
        ps.circuit = c;
        ps.revision = pool.revision();
        ps.engines = pool.size();
        ps.warm = pool.warm_count();
        ps.capacity = pool.capacity();
        ps.hits = pc.hits;
        ps.misses = pc.misses;
        ps.resyncs = pc.resyncs;
        ps.evictions = pc.evictions;
        ps.relocations = pc.relocations;
        out.pools.push_back(ps);
    }
    response r;
    r.id = id;
    r.payload = std::move(out);
    return r;
}

response service::handle_evict(std::uint64_t id, const evict_request& p) {
    // Shared session lock: pools are internally synchronized, and the
    // cache has its own mutex — eviction may interleave with running
    // jobs, exactly like a capacity-cap trim would.
    read_lock session_lock(session_mutex_);
    lock_guard cache_lock(cache_mutex_);
    evict_response out;
    if (p.all) {
        out.cache_entries = cache_entries_;
        cache_.clear();
        cache_order_.clear();
        cache_entries_ = 0;
        cache_bytes_ = 0;
        tenant_bytes_.clear();
        for (const std::size_t c : session_->handles())
            out.engines += session_->pool(c).evict(p.keep_engines);
    } else {
        require(session_->has_circuit(p.circuit), "evict: bad circuit handle");
        // Two-level payoff: evicting one circuit drops its bucket whole
        // instead of scanning every cached key in the service.
        if (circuit_bucket* b = cache_.find(p.circuit)) {
            out.cache_entries = b->entries.size();
            cache_entries_ -= b->entries.size();
            cache_bytes_ -= b->bytes;
            tenant_bytes_add(p.circuit, -static_cast<std::int64_t>(b->bytes));
            b->entries.clear();
            b->bytes = 0;
        }
        out.engines = session_->pool(p.circuit).evict(p.keep_engines);
    }
    cache_evictions_ += out.cache_entries;
    response r;
    r.id = id;
    r.payload = out;
    return r;
}

namespace {

/// Option-payload validation, so predictably bad options answer with a
/// per-job envelope instead of throwing deep inside a concurrent batch.
std::string validate_confidence(double confidence, bool zero_ok) {
    if (zero_ok && confidence == 0.0) return {};  // session default
    if (!std::isfinite(confidence) || confidence <= 0.0 || confidence >= 1.0)
        return "confidence must lie in (0,1)";
    return {};
}

std::string validate_options(const test_length_request& p) {
    return validate_confidence(p.confidence, true);
}

std::string validate_options(const optimize_request& p) {
    if (std::string msg = validate_confidence(p.options.confidence, false);
        !msg.empty())
        return msg;
    if (p.options.max_sweeps == 0) return "max_sweeps must be at least 1";
    if (!(p.options.weight_min > 0.0) ||
        !(p.options.weight_max < 1.0) ||
        !(p.options.weight_min < p.options.weight_max))
        return "need 0 < weight_min < weight_max < 1";
    if (!std::isfinite(p.options.alpha) || p.options.alpha < 0.0)
        return "alpha must be finite and non-negative";
    if (!std::isfinite(p.options.grid) || p.options.grid < 0.0 ||
        p.options.grid >= 1.0)
        return "grid must lie in [0,1)";
    if (!(p.options.trust_step > 0.0)) return "trust_step must be positive";
    if (p.options.prepare_block == 0)
        return "prepare_block must be at least 1";
    return {};
}

/// A tenant's fault_sim budget: fault dropping cannot end a run early on
/// a circuit with undetectable faults, so the budget bounds the work.
constexpr std::uint64_t max_fault_sim_patterns = 1ULL << 20;

std::string validate_options(const fault_sim_request& p) {
    if (p.patterns < 1 || p.patterns > max_fault_sim_patterns)
        return "patterns must lie in [1,1048576]";
    return {};
}

}  // namespace

std::string service::resolve_named(job_request& j, std::string* code) const {
    const std::string name =
        std::visit([](const auto& p) { return p.name; }, j);
    const registry::resolution r = registry_.resolve(name);
    if (!r.found) {
        *code = "not-found";
        return "unknown circuit '" + name + "'";
    }
    if (!r.resident || !session_->has_circuit(r.handle)) {
        // Unreachable from run_jobs (residency is ensured under the same
        // continuously-held session lock); defensive for future callers.
        *code = "not-ready";
        return "circuit '" + name + "' has no resident view";
    }
    // Rewrite to the handle spelling and drop the name, so the cache
    // fingerprint below is shared with handle-addressed queries.
    std::visit(
        [&](auto& p) {
            p.circuit = r.handle;
            p.name.clear();
        },
        j);
    return {};
}

std::string service::validate(job_ref j) const {
    const std::size_t handle =
        std::visit([](const auto* p) { return p->circuit; }, j);
    if (!session_->has_circuit(handle))
        return "bad circuit handle " + std::to_string(handle);
    const weight_vector& weights = std::visit(
        [](const auto* p) -> const weight_vector& { return p->weights; }, j);
    if (!weights.empty() &&
        weights.size() != session_->circuit(handle).input_count())
        return "weight count mismatch: got " + std::to_string(weights.size()) +
               ", circuit has " +
               std::to_string(session_->circuit(handle).input_count()) +
               " inputs";
    for (const double w : weights) {
        if (!std::isfinite(w)) return "weights must be finite";
        if (w < 0.0 || w > 1.0) return "weights must lie in [0,1]";
    }
    return std::visit([](const auto* p) { return validate_options(*p); }, j);
}

namespace {

/// Appends a job's cache fingerprint by walking its field list: numbers as
/// 8 bytes (doubles by bit pattern), strings and weight vectors behind their
/// length. Left out: the level-1 handle, the registry name (resolved to it
/// first) and the thread counts (results are thread-invariant).
struct key_writer {
    std::string& out;
    const netlist& circuit;

    template <class T>
    void operator()(std::string_view key, const T& m, omit_empty_t = {}) {
        if (key == "circuit" || key == "name" || key == "threads") return;
        if constexpr (std::is_same_v<T, double>) {
            (*this)(key, std::bit_cast<std::uint64_t>(m));
        } else if constexpr (std::is_unsigned_v<T>) {
            const std::uint64_t v = m;
            out.append(reinterpret_cast<const char*>(&v), sizeof v);
        } else if constexpr (std::is_same_v<T, weight_vector>) {
            if (m.empty() && circuit.input_count() != 0)  // uniform shorthand
                return (*this)(key, uniform_weights(circuit));
            (*this)(key, m.size());
            out.append(reinterpret_cast<const char*>(m.data()),
                       m.size() * sizeof(double));
        } else if constexpr (std::is_same_v<T, std::string>) {
            (*this)(key, m.size());
            out.append(m);
        } else {
            fields(m, *this);  // optimize_options
        }
    }
};

}  // namespace

service::cache_locator service::key_of(job_ref j) const {
    cache_locator key;
    key.circuit = std::visit([](const auto* p) { return p->circuit; }, j);
    const netlist& circuit = session_->circuit(key.circuit);
    key.revision = circuit.revision();
    key.fingerprint.reserve(8 * circuit.input_count() + 256);
    key.fingerprint.push_back(static_cast<char>(j.index()));  // the kind
    key_writer w{key.fingerprint, circuit};
    std::visit([&](const auto* p) { fields(*p, w); }, j);
    return key;
}

std::uint64_t service::entry_cost(job_ref j,
                                  const batch_session::result& r) const {
    // Deterministic, platform-stable approximation of an entry's retained
    // bytes: the job's canonical wire length under key_of's normalizations
    // (on a copy: misses only), a fixed overhead, and the result payloads
    // (weights and sweep history at 8 and 16 bytes per element).
    request q;
    std::visit(
        [&](const auto* p) {
            auto n = *p;
            n.circuit = 0;
            n.name.clear();
            if (n.weights.empty())
                n.weights = uniform_weights(session_->circuit(p->circuit));
            if constexpr (requires { n.threads; }) n.threads = 1;
            if constexpr (requires { n.options.threads; })
                n.options.threads = 1;
            q.payload = std::move(n);
        },
        j);
    return encode(q).size() + 64 + 8 * r.optimized.weights.size() +
           16 * r.optimized.history.size();
}

const service::cache_entry* service::probe_cached(const cache_locator& key) {
    // Caller holds cache_mutex_.
    ++cache_probes_;
    const circuit_bucket* b = cache_.find(key.circuit);
    if (b == nullptr || b->revision != key.revision) return nullptr;
    const auto it = b->entries.find(key.fingerprint);
    return it == b->entries.end() ? nullptr : &it->second;
}

void service::insert_cached(cache_locator key, std::uint64_t cost,
                            const batch_session::result& r,
                            std::shared_ptr<const std::string> hit_bytes) {
    // Caller holds cache_mutex_.
    const std::uint64_t seq = ++cache_sequence_;
    circuit_bucket& b = cache_[key.circuit];
    if (b.revision != key.revision) {
        // Re-stamped handle (hot reload): the old revision's entries can
        // never hit again — orphan the bucket wholesale. Each entry
        // counts as exactly one eviction here; the stale order records
        // left in the FIFO are skipped silently below, never recounted.
        cache_evictions_ += b.entries.size();
        cache_entries_ -= b.entries.size();
        cache_bytes_ -= b.bytes;
        tenant_bytes_add(key.circuit, -static_cast<std::int64_t>(b.bytes));
        b.entries.clear();
        b.bytes = 0;
        b.revision = key.revision;
    }
    const auto [it, fresh] = b.entries.try_emplace(key.fingerprint);
    if (!fresh) {
        // Benign same-key race (two connections computed the same bits):
        // replace, keeping the accounting exact.
        b.bytes -= it->second.bytes;
        cache_bytes_ -= it->second.bytes;
        tenant_bytes_add(key.circuit,
                         -static_cast<std::int64_t>(it->second.bytes));
        --cache_entries_;
    }
    it->second = cache_entry{r, std::move(hit_bytes), seq, cost};
    b.bytes += cost;
    cache_bytes_ += cost;
    tenant_bytes_add(key.circuit, static_cast<std::int64_t>(cost));
    ++cache_entries_;
    // The order index is only needed (and only maintained) under a cap —
    // the global entry cap or a per-tenant byte quota; without either it
    // would grow unboundedly for nothing.
    if (options_.max_cache_entries == 0 &&
        registry_.config().quota.max_cache_bytes == 0)
        return;
    const std::size_t inserted_circuit = key.circuit;
    cache_order_.push_back(
        order_record{key.circuit, seq, std::move(key.fingerprint)});
    while (options_.max_cache_entries != 0 &&
           cache_entries_ > options_.max_cache_entries &&
           !cache_order_.empty()) {
        const order_record oldest = std::move(cache_order_.front());
        cache_order_.pop_front();
        circuit_bucket* ob = cache_.find(oldest.circuit);
        if (ob == nullptr) continue;
        const auto oit = ob->entries.find(oldest.fingerprint);
        // Skip stale order records: the key was dropped by an evict
        // request or a reload orphan (already counted there), or
        // re-inserted later under a newer sequence.
        if (oit != ob->entries.end() &&
            oit->second.sequence == oldest.sequence) {
            ob->bytes -= oit->second.bytes;
            cache_bytes_ -= oit->second.bytes;
            tenant_bytes_add(oldest.circuit,
                             -static_cast<std::int64_t>(oit->second.bytes));
            ob->entries.erase(oit);
            --cache_entries_;
            ++cache_evictions_;
        }
    }
    enforce_tenant_cache_quota(inserted_circuit);
}

void service::tenant_bytes_add(std::size_t circuit, std::int64_t delta) {
    // Caller holds cache_mutex_.
    const std::string* tenant = handle_tenant_.find(circuit);
    if (tenant == nullptr) return;  // handle-loaded circuit: untracked
    std::uint64_t& bytes = tenant_bytes_[*tenant];
    bytes = static_cast<std::uint64_t>(static_cast<std::int64_t>(bytes) +
                                       delta);
}

void service::enforce_tenant_cache_quota(std::size_t circuit) {
    // Caller holds cache_mutex_.
    const std::uint64_t cap = registry_.config().quota.max_cache_bytes;
    if (cap == 0) return;
    const std::string* tenant = handle_tenant_.find(circuit);
    if (tenant == nullptr) return;
    const auto bit = tenant_bytes_.find(*tenant);
    if (bit == tenant_bytes_.end() || bit->second <= cap) return;
    // Walk the global FIFO oldest-first without popping (records owned by
    // other tenants must keep their place); entries this evicts leave
    // stale records behind, skipped lazily like any other.
    for (const order_record& rec : cache_order_) {
        if (bit->second <= cap) break;
        const std::string* owner = handle_tenant_.find(rec.circuit);
        if (owner == nullptr || *owner != *tenant) continue;
        circuit_bucket* ob = cache_.find(rec.circuit);
        if (ob == nullptr) continue;
        const auto oit = ob->entries.find(rec.fingerprint);
        if (oit == ob->entries.end() || oit->second.sequence != rec.sequence)
            continue;
        ob->bytes -= oit->second.bytes;
        cache_bytes_ -= oit->second.bytes;
        bit->second -= oit->second.bytes;
        ob->entries.erase(oit);
        --cache_entries_;
        ++cache_evictions_;
    }
    // Cheap compaction: drop leading records that no longer name a live
    // entry, so repeated quota sweeps do not rescan a stale prefix.
    while (!cache_order_.empty()) {
        const order_record& front = cache_order_.front();
        const circuit_bucket* fb = cache_.find(front.circuit);
        if (fb != nullptr) {
            const auto fit = fb->entries.find(front.fingerprint);
            if (fit != fb->entries.end() &&
                fit->second.sequence == front.sequence)
                break;
        }
        cache_order_.pop_front();
    }
}

response service::to_response(std::uint64_t id,
                              const batch_session::result& r, bool cached) {
    response out;
    out.id = id;
    const double elapsed_ms = cached ? 0.0 : r.elapsed_seconds * 1e3;
    length_payload length;
    length.feasible = r.length.feasible;
    length.test_length = r.length.test_length;
    length.relevant_faults = r.length.relevant_faults;
    length.zero_prob_faults = r.length.zero_prob_faults;
    length.hardest_probability = r.length.hardest_probability;
    switch (r.kind) {
        case job_kind::test_length: {
            test_length_response p;
            p.circuit = r.circuit;
            p.revision = r.revision;
            p.cached = cached;
            p.elapsed_ms = elapsed_ms;
            p.length = length;
            out.payload = std::move(p);
            break;
        }
        case job_kind::optimize: {
            optimize_response p;
            p.circuit = r.circuit;
            p.revision = r.revision;
            p.cached = cached;
            p.elapsed_ms = elapsed_ms;
            p.feasible = r.optimized.feasible;
            p.initial_length = r.optimized.initial_test_length;
            p.final_length = r.optimized.final_test_length;
            p.sweeps = r.optimized.history.size();
            p.analysis_calls = r.optimized.analysis_calls;
            p.zero_prob_faults = r.optimized.zero_prob_faults;
            p.weights = r.optimized.weights;
            p.length = length;
            out.payload = std::move(p);
            break;
        }
        case job_kind::fault_sim: {
            fault_sim_response p;
            p.circuit = r.circuit;
            p.revision = r.revision;
            p.cached = cached;
            p.elapsed_ms = elapsed_ms;
            p.patterns = r.patterns_applied;
            p.faults = r.fault_count;
            p.detected = r.detected;
            p.coverage = r.coverage_percent;
            out.payload = std::move(p);
            break;
        }
    }
    return out;
}

std::shared_ptr<const std::string> service::encode_hit(
    const batch_session::result& r) {
    // A hit's envelope after its id depends on the entry alone: the key
    // fixes the handle, the bucket the revision, and every hit is
    // cached:true with elapsed_ms 0.
    static constexpr std::string_view head = "{\"id\":0";
    std::string bytes = encode(to_response(0, r, true));
    require(bytes.starts_with(head),
            "service: a response must encode its id first");
    bytes.erase(0, head.size());
    return std::make_shared<const std::string>(std::move(bytes));
}

namespace {

/// A job by reference (a job_ref), and a job_request copy of one.
template <class... P>
std::variant<const P*...> ref_of(const std::variant<P...>& j) {
    return std::visit(
        [](const auto& p) { return std::variant<const P*...>{&p}; }, j);
}
template <class... P>
std::variant<P...> copy_of(const std::variant<const P*...>& j) {
    return std::visit([](const auto* p) { return std::variant<P...>{*p}; },
                      j);
}

template <class... P>
const std::string& job_name(const std::variant<const P*...>& j) {
    return std::visit(
        [](const auto* p) -> const std::string& { return p->name; }, j);
}

}  // namespace

response service::handle_matrix(std::uint64_t id, const matrix_request& p) {
    // Expansion reads the circuit table (an empty circuit list means
    // "every registered circuit"), so it must sit under the same shared
    // lock as the jobs themselves — a concurrent load_circuit would
    // otherwise race the expansion's circuit_count() read.
    read_lock session_lock(session_mutex_);
    const std::vector<job_request> jobs = session_->expand_matrix(p);
    std::vector<job_ref> refs;
    refs.reserve(jobs.size());
    for (const job_request& j : jobs) refs.push_back(ref_of(j));
    response r;
    r.id = id;
    matrix_response m;
    m.results = run_jobs_locked(id, refs);
    r.payload = std::move(m);
    return r;
}

std::vector<response> service::run_jobs(std::uint64_t id,
                                        std::span<const job_ref> jobs) {
    // Shared session lock for the whole batch: the circuit table stays
    // stable under us while concurrent run_jobs callers from other
    // connections proceed in parallel (only load/register/reload exclude).
    // Named jobs ride the same shared path as long as every named view is
    // resident; unknown names resolve to typed errors without upgrading.
    {
        read_lock session_lock(session_mutex_);
        bool compile = false;
        for (const job_ref j : jobs) {
            const std::string& name = job_name(j);
            if (!name.empty() && registry_.needs_compile(name)) {
                compile = true;
                break;
            }
        }
        if (!compile) return run_jobs_locked(id, jobs);
    }
    // Some named view needs compiling (first use, or evicted by the
    // max_views LRU): take the session lock exclusively for the whole
    // batch, so the views we materialize cannot be re-evicted by a
    // concurrent batch before our jobs resolve against them.
    write_lock session_lock(session_mutex_);
    for (const job_ref j : jobs) {
        const std::string& name = job_name(j);
        if (!name.empty()) registry_.ensure_resident(*session_, name);
    }
    return run_jobs_locked(id, jobs);
}

std::vector<response> service::run_jobs_locked(std::uint64_t id,
                                               std::span<const job_ref> jobs) {
    std::vector<response> out(jobs.size());
    std::vector<cache_locator> keys(jobs.size());
    // Validate and probe the cache up front; only distinct cache misses
    // go to the session (duplicate keys within one batch compute once and
    // fan the result out), and they still run concurrently as one batch.
    // Duplicates are detected on (circuit, fingerprint) — the revision is
    // fixed per handle within the batch (the shared session lock is held).
    // Keyed by (handle, fingerprint string) and local to one batch —
    // ordered std::map, not the integer-keyed dense_map.
    std::map<std::pair<std::size_t, std::string>,  // wrpt-lint: allow(dense-map)
             std::size_t>
        leaders;  // key -> slot in to_run
    std::vector<std::vector<std::size_t>> owners;  // per slot: job indices
    std::vector<job_request> to_run;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        job_ref j = jobs[i];
        job_request named;  // a named job's copy, rewritten to its handle
        if (!job_name(j).empty()) {
            named = copy_of(j);
            std::string code;
            if (std::string msg = resolve_named(named, &code); !msg.empty()) {
                out[i] = make_error(id, msg, code);
                continue;
            }
            j = ref_of(named);
        }
        if (std::string msg = validate(j); !msg.empty()) {
            out[i] = make_error(id, msg);
            continue;
        }
        keys[i] = key_of(j);
        lock_guard cache_lock(cache_mutex_);
        if (const cache_entry* hit = probe_cached(keys[i])) {
            ++cache_hits_;
            out[i] = to_response(id, hit->result, true);
            out[i].hit_bytes = hit->hit_bytes;
            continue;
        }
        const auto [slot, fresh] = leaders.try_emplace(
            std::make_pair(keys[i].circuit, keys[i].fingerprint),
            to_run.size());
        if (fresh) {
            to_run.push_back(copy_of(j));
            owners.push_back({i});
        } else {
            owners[slot->second].push_back(i);
        }
    }
    if (!to_run.empty()) {
        std::vector<batch_session::result> results;
        std::vector<std::string> errors(to_run.size());
        std::vector<bool> computed(to_run.size(), false);
        try {
            results = session_->run(to_run);
            std::fill(computed.begin(), computed.end(), true);
        } catch (const std::exception&) {
            // A failure inside the concurrent batch must not collapse the
            // whole request (the per-entry envelope contract): rerun each
            // job alone so every entry gets its own answer or error.
            results.resize(to_run.size());
            for (std::size_t k = 0; k < to_run.size(); ++k) {
                try {
                    results[k] = session_->run({to_run[k]}).front();
                    computed[k] = true;
                } catch (const std::exception& e) {
                    errors[k] = e.what();
                }
            }
        }
        std::vector<std::uint64_t> costs(to_run.size());
        std::vector<std::shared_ptr<const std::string>> hit_bytes(
            to_run.size());
        for (std::size_t k = 0; k < to_run.size(); ++k) {
            if (!computed[k]) continue;
            costs[k] = entry_cost(ref_of(to_run[k]), results[k]);
            hit_bytes[k] = encode_hit(results[k]);
        }
        lock_guard cache_lock(cache_mutex_);
        for (std::size_t k = 0; k < to_run.size(); ++k) {
            if (!computed[k]) {
                // Every owner probed (and was counted a probe) without
                // hitting; account them as misses so `probes == hits +
                // misses` holds even when the job itself fails.
                cache_misses_ += owners[k].size();
                for (const std::size_t i : owners[k])
                    out[i] = make_error(id, errors[k]);
                continue;
            }
            // The first job with this key is the miss that computed; any
            // duplicates in the same batch are answered from its entry.
            ++cache_misses_;
            insert_cached(keys[owners[k].front()], costs[k], results[k],
                          hit_bytes[k]);
            out[owners[k].front()] = to_response(id, results[k], false);
            for (std::size_t d = 1; d < owners[k].size(); ++d) {
                ++cache_hits_;
                out[owners[k][d]] = to_response(id, results[k], true);
                out[owners[k][d]].hit_bytes = hit_bytes[k];
            }
        }
    }
    return out;
}

}  // namespace wrpt::svc
