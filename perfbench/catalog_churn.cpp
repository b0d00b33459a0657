// catalog-churn: reads beside writes. The daemon holds fewer compiled
// views (--max-views) than the catalog has entries; named test_length /
// fault_sim reads arrive open-loop (seeded Poisson arrivals over four
// connections) with Zipf-skewed popularity, and a fixed share of the
// arrivals hot-reload a popular entry, alternating between two variants.
// Each request is timed from its scheduled send time.

#include <poll.h>

#include <deque>
#include <map>
#include <random>
#include <stdexcept>

#include "exec/batch_session.h"
#include "gen/random_circuit.h"
#include "io/bench_io.h"
#include "svc/service.h"
#include "svc/wire.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace svc = wrpt::svc;

// Set-up is cheap (~0.03 s): repeated often for a steady median, before
// the timed window (the last daemon serves it) and after it, so the
// median spans the run rather than one moment.
constexpr int setup_before = 5;
constexpr int setup_after = 4;
constexpr int windows = 5;  ///< sub-windows for the throughput

constexpr std::size_t connections = 4;
constexpr double arrival_rate = 200.0;    ///< requests per second
constexpr double reload_share = 0.05;
constexpr std::size_t max_views = 10;
constexpr std::size_t max_cache = 128;    ///< result-cache entries
constexpr double read_limit_s = 0.020;    ///< the reads' latency limit
constexpr double late_limit_s = 0.010;    ///< validity: generator p99 lateness
// Eight options per read kind: 16 distinct reads per entry outnumber the
// result cache, so most reads compute and the latencies measure work
// rather than the host's wake-up jitter.
constexpr int options_per_kind = 8;
constexpr std::uint64_t sim_patterns = 1024;
constexpr double confidences[options_per_kind] = {0.9,   0.95,   0.99,   0.995,
                                                  0.999, 0.9995, 0.9999, 0.99999};
constexpr std::size_t reload_targets = 3;  ///< the most popular entries

/// One catalog entry. Structure is fixed (not seeded), so every seed
/// sees the same catalog and only the request stream varies.
struct entry {
    std::string tenant, name;
    std::string suite;  ///< suite circuit, or empty for a generated one
    std::string bench;  ///< generated netlist text
    std::string variant[2];  ///< reload texts (reload targets only)
    std::string address() const { return tenant + "/" + name; }
};

std::string random_bench(std::uint64_t seed) {
    wrpt::random_circuit_spec s;
    s.inputs = 24;
    s.gates = 300;
    s.seed = seed;
    return wrpt::write_bench_string(wrpt::make_random_circuit(s));
}

/// Popularity rank order: the three generated reload targets first, then
/// the rest interleaved across tenants.
std::vector<entry> make_catalog() {
    const char* tenants[] = {"t0", "t1", "t2"};
    const char* suites[] = {"c432", "c499", "c880", "c1355", "c1908", "c2670"};
    std::vector<entry> gen, rest;
    for (int t = 0; t < 3; ++t) {
        for (int g = 0; g < 3; ++g) {
            entry e;
            e.tenant = tenants[t];
            e.name = "g" + std::to_string(g);
            e.bench = random_bench(1000 + 10 * t + g);
            (g == 0 ? gen : rest).push_back(std::move(e));
        }
        for (int s = 0; s < 2; ++s) {
            entry e;
            e.tenant = tenants[t];
            e.suite = suites[2 * t + s];
            e.name = e.suite;
            rest.push_back(std::move(e));
        }
    }
    for (std::size_t i = 0; i < gen.size(); ++i) {
        gen[i].variant[0] = random_bench(2000 + i);
        gen[i].variant[1] = random_bench(3000 + i);
    }
    gen.insert(gen.end(), rest.begin(), rest.end());
    return gen;
}

svc::request register_request(const entry& e, const std::string& name,
                              const std::string& bench) {
    svc::register_circuit_request r;
    r.tenant = e.tenant;
    r.name = name;
    if (e.suite.empty()) r.bench = bench;
    else r.suite = e.suite;
    svc::request q;
    q.payload = std::move(r);
    return q;
}

struct scheduled {
    double at = 0.0;          ///< offset from the window start
    std::size_t entry = 0;
    bool reload = false;
    int variant = 0;          ///< reloads: which text
    int key = 0;              ///< reads: kind * options_per_kind + option
    std::string line;
};

/// Read key -> request for `address`: test_length at a confidence, or
/// fault_sim with a seed.
svc::request read_request(const std::string& address, int key) {
    svc::request q;
    if (key / options_per_kind == 0) {
        svc::test_length_request t;
        t.name = address;
        t.confidence = confidences[key % options_per_kind];
        q.payload = std::move(t);
    } else {
        svc::fault_sim_request f;
        f.name = address;
        f.patterns = sim_patterns;
        f.seed = static_cast<std::uint64_t>(key % options_per_kind) + 1;
        q.payload = std::move(f);
    }
    return q;
}

struct outcome {
    double sent = 0.0;     ///< absolute send time
    double arrived = 0.0;
    std::string answer;
};

struct connection_state {
    std::unique_ptr<conn> c;
    std::string outbox;
    std::size_t out_head = 0;
    std::deque<std::size_t> pending;  ///< schedule indices
};

/// What a read's answer must match, minus the per-process fields.
std::string comparable(std::string_view line) {
    return strip_fields(line, {"id", "circuit", "revision", "cached", "elapsed_ms"});
}

}  // namespace

run_result run_catalog_churn(const config& cfg) {
    run_result res;
    const std::vector<entry> catalog = make_catalog();
    const std::size_t n_entries = catalog.size();

    // --- the seeded schedule ---------------------------------------------
    std::mt19937_64 rng(cfg.seed * 0x9e3779b97f4a7c15ull + 37);
    std::vector<double> zipf;
    for (std::size_t r = 0; r < n_entries; ++r) zipf.push_back(1.0 / static_cast<double>(r + 1));
    std::discrete_distribution<std::size_t> popularity(zipf.begin(), zipf.end());
    std::exponential_distribution<double> gap(arrival_rate);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<scheduled> plan;
    std::vector<int> reloads_so_far(reload_targets, 0);
    digest dg;
    for (double t = gap(rng); t < cfg.seconds; t += gap(rng)) {
        scheduled s;
        s.at = t;
        if (unit(rng) < reload_share) {
            s.reload = true;
            s.entry = std::uniform_int_distribution<std::size_t>(0, reload_targets - 1)(rng);
            s.variant = reloads_so_far[s.entry]++ % 2;
            const entry& e = catalog[s.entry];
            svc::reload_circuit_request r;
            r.tenant = e.tenant;
            r.name = e.name;
            r.bench = e.variant[s.variant];
            svc::request q;
            q.payload = std::move(r);
            s.line = encode_line(plan.size() + 1000, q) + "\n";
        } else {
            s.entry = popularity(rng);
            s.key = std::uniform_int_distribution<int>(0, 2 * options_per_kind - 1)(rng);
            s.line = encode_line(plan.size() + 1000,
                                 read_request(catalog[s.entry].address(), s.key)) + "\n";
        }
        dg.add_u64(static_cast<std::uint64_t>(t * 1e9));
        dg.add(s.line);
        plan.push_back(std::move(s));
    }

    // --- setup, repeated: spawn, register the catalog, read each entry --
    const daemon_config dc = make_daemon_config(
        cfg, {"--max-views", std::to_string(max_views), "--max-cache",
              std::to_string(max_cache)});
    std::vector<double> setup_times;
    std::unique_ptr<daemon_process> d;
    std::vector<connection_state> conns(connections);
    std::vector<std::uint64_t> first_revision(n_entries);
    std::vector<std::string> register_lines;
    for (const entry& e : catalog)
        register_lines.push_back(encode_line(register_lines.size() + 1,
                                             register_request(e, e.name, e.bench)));
    for (const std::string& l : register_lines) dg.add(l);
    auto stop = [&]() {
        for (connection_state& s : conns) s.c.reset();
        if (!d->shutdown()) res.fail_check("daemon did not shut down cleanly");
        d.reset();
    };
    // Returns the registration revision of every entry.
    auto setup = [&]() {
        std::vector<std::uint64_t> revisions(n_entries);
        const double t0 = now_s();
        d = std::make_unique<daemon_process>(dc);
        for (connection_state& s : conns)
            s.c = std::make_unique<conn>(dc.socket_path, 30.0);
        for (std::size_t i = 0; i < n_entries; ++i) {
            const svc::response r = decode(conns[0].c->call(register_lines[i]));
            const auto* g = std::get_if<svc::register_circuit_response>(&r.payload);
            if (!r.ok || g == nullptr)
                throw std::runtime_error("catalog-churn: register failed");
            revisions[i] = g->revision;
        }
        // Warm-up compiles every entry once (the coldest views are
        // evicted again), least popular first, so the popular ones stay.
        for (std::size_t i = n_entries; i-- > 0;) {
            const std::string line =
                encode_line(900 + i, read_request(catalog[i].address(), 1));
            if (!decode(conns[0].c->call(line)).ok)
                throw std::runtime_error("catalog-churn: warm-up failed");
        }
        setup_times.push_back(now_s() - t0);
        return revisions;
    };
    for (int rep = 0; rep < setup_before; ++rep) {
        if (d) stop();
        first_revision = setup();
    }
    const svc::stats_response before = fetch_stats(*conns[0].c, 2);
    stamp_daemon(before, res);

    // --- timed open loop -------------------------------------------------------
    std::vector<outcome> out(plan.size());
    std::vector<double> late;
    late.reserve(plan.size());
    std::size_t next = 0, outstanding = 0;
    const double t_begin = now_s() + 0.001;
    double last_progress = t_begin;
    std::vector<pollfd> fds(connections);
    while (next < plan.size() || outstanding > 0) {
        double t = now_s();
        while (next < plan.size() && t_begin + plan[next].at <= t) {
            connection_state& s = conns[next % connections];
            s.outbox.append(plan[next].line);
            s.pending.push_back(next);
            out[next].sent = t;
            late.push_back(t - (t_begin + plan[next].at));
            ++outstanding;
            ++next;
            t = now_s();
        }
        for (std::size_t ci = 0; ci < connections; ++ci) {
            connection_state& s = conns[ci];
            if (s.out_head < s.outbox.size()) {
                s.out_head += s.c->send_some(std::string_view(s.outbox).substr(s.out_head));
                if (s.out_head == s.outbox.size()) {
                    s.outbox.clear();
                    s.out_head = 0;
                }
            }
            fds[ci] = {s.c->fd(),
                       static_cast<short>(POLLIN | (s.outbox.empty() ? 0 : POLLOUT)), 0};
        }
        if (now_s() - last_progress > 60.0)
            throw std::runtime_error("catalog-churn: the daemon stopped answering");
        // The generator busy-polls: sleeping until the next send would add
        // the host's wake-up jitter (milliseconds on a shared VM) to both
        // the send time and the arrival timestamps it measures.
        ::poll(fds.data(), fds.size(), 0);
        for (std::size_t ci = 0; ci < connections; ++ci) {
            if (!(fds[ci].revents & POLLIN)) continue;
            connection_state& s = conns[ci];
            s.c->pump();
            std::string line;
            while (s.c->pop_line(line)) {
                const double arrived = now_s();
                last_progress = arrived;
                if (s.pending.empty())
                    throw std::runtime_error("catalog-churn: unexpected answer");
                const std::size_t k = s.pending.front();
                s.pending.pop_front();
                out[k].arrived = arrived;
                out[k].answer = std::move(line);
                --outstanding;
            }
        }
    }

    const svc::stats_response after = fetch_stats(*conns[0].c, 3);
    check_stats(after, res);
    // The workload must exercise what it claims: views evicted under the
    // --max-views cap, and reads the cache could not answer.
    const std::uint64_t probes = after.cache_probes - before.cache_probes;
    const double hit_ratio =
        probes ? static_cast<double>(after.cache_hits - before.cache_hits) /
                     static_cast<double>(probes)
               : 0.0;
    const std::uint64_t view_evictions =
        after.registry.view_evictions - before.registry.view_evictions;
    if (view_evictions == 0)
        res.fail_check("catalog-churn: no view was evicted in the timed window");
    if (probes == 0 || hit_ratio >= 1.0)
        res.fail_check("catalog-churn: the cache hit ratio is " +
                       std::to_string(hit_ratio) + ", not below 1");
    stop();
    for (int rep = 0; rep < setup_after; ++rep) {
        setup();
        stop();
    }

    // --- checks: revisions from the reload log, content per revision -----
    // Per entry: (revision, born, died) — a revision is current from the
    // send of the reload that made it until the answer of the reload that
    // replaced it. Two reloads of one entry on different connections may
    // apply in either order, so the log follows each answer's old_revision
    // link rather than the send order.
    struct life {
        std::uint64_t revision;
        double born, died;
        int variant;  ///< -1 = as registered
    };
    struct reload_record {
        std::uint64_t revision;
        double sent, arrived;
        int variant;
    };
    std::vector<std::map<std::uint64_t, reload_record>> replaced(n_entries);
    std::vector<double> read_lat, reload_lat, class_lat[3];
    // Reads by schedule time, for the throughput. Percentiles come from
    // the whole run: a sub-window holds too few reads beyond its p99.
    windowed timed(t_begin, cfg.seconds, windows);
    std::size_t within = 0, reads = 0, reloads_ok = 0;
    res.attempted = plan.size();
    for (std::size_t k = 0; k < plan.size(); ++k) {
        if (!plan[k].reload) continue;
        svc::response r;
        try {
            r = decode(out[k].answer);
        } catch (const std::exception&) {
            r.ok = false;
        }
        const auto* rl = std::get_if<svc::reload_circuit_response>(&r.payload);
        if (!r.ok || rl == nullptr) {
            ++res.failed;
            res.fail("catalog-churn: reload failed: " + out[k].answer.substr(0, 200));
            continue;
        }
        ++reloads_ok;
        if (!replaced[plan[k].entry]
                 .emplace(rl->old_revision, reload_record{rl->revision, out[k].sent,
                                                          out[k].arrived, plan[k].variant})
                 .second)
            res.fail_check("catalog-churn: two reloads replaced one revision");
        const double lat = out[k].arrived - (t_begin + plan[k].at);
        reload_lat.push_back(lat * 1e3);
        class_lat[2].push_back(lat * 1e6);
    }
    std::vector<std::vector<life>> lives(n_entries);
    std::size_t chained = 0;
    for (std::size_t i = 0; i < n_entries; ++i) {
        lives[i].push_back({first_revision[i], -1e300, 1e300, -1});
        for (auto it = replaced[i].find(first_revision[i]); it != replaced[i].end();
             it = replaced[i].find(it->second.revision)) {
            lives[i].back().died = it->second.arrived;
            lives[i].push_back({it->second.revision, it->second.sent, 1e300,
                                it->second.variant});
            ++chained;
        }
    }
    if (chained != reloads_ok)
        res.fail_check("catalog-churn: the reload answers do not form one revision chain");

    // In-process reference: every (entry, variant) registered under its
    // own name, answers memoized per (name, read key).
    struct expected_answer {
        std::string text;        ///< comparable() form
        double length = 0.0;     ///< feasible test_length N, else 0
        double coverage = -1.0;  ///< fault_sim coverage, else -1
    };
    svc::service::options ro;
    ro.threads = 1;
    svc::service ref(ro);
    std::map<std::string, expected_answer> expected;
    auto reference = [&](std::size_t e, int variant, int key) -> const expected_answer& {
        const entry& en = catalog[e];
        const std::string name =
            en.name + (variant < 0 ? "" : variant == 0 ? ".a" : ".b");
        const std::string memo = en.tenant + "/" + name + "#" + std::to_string(key);
        auto it = expected.find(memo);
        if (it != expected.end()) return it->second;
        if (ref.catalog().resolve(en.tenant + "/" + name).found == false) {
            const std::string& text = variant < 0 ? en.bench : en.variant[variant];
            if (!ref.handle(register_request(en, name, text)).ok)
                throw std::runtime_error("catalog-churn: reference register failed");
        }
        const svc::response r = ref.handle(read_request(en.tenant + "/" + name, key));
        expected_answer a;
        a.text = comparable(svc::encode(r));
        if (const auto* t = std::get_if<svc::test_length_response>(&r.payload))
            a.length = t->length.feasible ? t->length.test_length : 0.0;
        else if (const auto* f = std::get_if<svc::fault_sim_response>(&r.payload))
            a.coverage = f->coverage;
        return expected[memo] = std::move(a);
    };

    std::size_t stale = 0, torn = 0;
    for (std::size_t k = 0; k < plan.size(); ++k) {
        if (plan[k].reload) continue;
        ++reads;
        const double lat = out[k].arrived - (t_begin + plan[k].at);
        svc::response r;
        try {
            r = decode(out[k].answer);
        } catch (const std::exception&) {
            r.ok = false;
        }
        std::uint64_t revision = 0;
        if (const auto* t = std::get_if<svc::test_length_response>(&r.payload)) {
            revision = t->revision;
        } else if (const auto* f = std::get_if<svc::fault_sim_response>(&r.payload)) {
            revision = f->revision;
        } else {
            r.ok = false;
        }
        if (!r.ok) {
            ++res.failed;
            res.fail("catalog-churn: read failed: " + out[k].answer.substr(0, 200));
            continue;
        }
        read_lat.push_back(lat * 1e6);
        timed.add(t_begin + plan[k].at, lat * 1e6);
        class_lat[plan[k].key / options_per_kind].push_back(lat * 1e6);
        within += lat <= read_limit_s ? 1 : 0;
        const life* match = nullptr;
        for (const life& l : lives[plan[k].entry])
            if (l.revision == revision && l.born <= out[k].arrived && l.died >= out[k].sent)
                match = &l;
        if (match == nullptr) {
            ++stale;
            ++res.failed;
            continue;
        }
        if (comparable(out[k].answer) !=
            reference(plan[k].entry, match->variant, plan[k].key).text) {
            ++torn;
            ++res.failed;
        }
    }
    if (stale) res.fail("catalog-churn: " + std::to_string(stale) +
                        " answers carry a revision that was not current");
    if (torn) res.fail("catalog-churn: " + std::to_string(torn) +
                       " answers differ from their revision's reference");
    std::vector<double> sorted_late = late;
    const double late_p99 = percentile(sorted_late, 0.99);
    if (late_p99 > late_limit_s)
        res.fail_check("catalog-churn: the generator fell behind its schedule (p99 " +
                       std::to_string(late_p99 * 1e3) + " ms late)");

    // --- metrics ------------------------------------------------------------
    const double attempted = static_cast<double>(std::max<std::uint64_t>(res.attempted, 1));
    const double error_rate = static_cast<double>(res.failed) / attempted;
    std::vector<double> class_medians;
    for (const auto& v : class_lat) class_medians.push_back(median(v));
    const double slo = reads ? 100.0 * static_cast<double>(within) / static_cast<double>(reads) : 0.0;
    res.set("setup_s", median(setup_times));
    res.set("success_pct", 100.0 * (1.0 - error_rate));
    res.set("throughput_rps", timed.rate());
    res.set("latency_p50_us", median(read_lat));
    res.set("latency_p90_us", percentile(read_lat, 0.90));
    res.set("class_geomean_us", geomean(class_medians));
    res.set("slo_pct", slo);
    // Length and coverage weigh every answer the catalog can give once —
    // each (entry, content variant, read) — so they describe the catalog
    // the daemon serves (its answers were checked against these) rather
    // than the seeded popularity draw.
    std::vector<double> lengths, coverages;
    for (std::size_t e = 0; e < n_entries; ++e) {
        for (int variant = -1; variant < (e < reload_targets ? 2 : 0); ++variant) {
            for (int key = 0; key < 2 * options_per_kind; ++key) {
                const expected_answer& a = reference(e, variant, key);
                if (a.length > 0) lengths.push_back(a.length);
                if (a.coverage >= 0) coverages.push_back(a.coverage);
            }
        }
    }
    res.set("length_geomean", geomean(lengths));
    res.set("coverage_pct", mean(coverages));

    res.set("error_rate", error_rate);
    res.set("churn_read_p50_us", median(read_lat));
    res.set("churn_read_p99_us", percentile(read_lat, 0.99));
    res.set("churn_reload_p50_ms", median(reload_lat));
    res.set("churn_slo_pct", slo);
    res.set("svc.cache.hit_ratio", hit_ratio);
    res.set("svc.cache.evictions",
            static_cast<double>(after.cache_evictions - before.cache_evictions));
    res.set("registry.view_evictions", static_cast<double>(view_evictions));
    res.set("registry.view_rebuilds",
            static_cast<double>(after.registry.view_rebuilds - before.registry.view_rebuilds));
    res.set("registry.resident", static_cast<double>(after.registry.resident));
    res.set("loadgen.late_p99_ms", late_p99 * 1e3);
    res.set("svc.server.queue_drops", static_cast<double>(after.server.queue_drops));
    res.set("svc.server.protocol_errors", static_cast<double>(after.server.protocol_errors));

    if (cfg.trace) {
        // io and core on the reload texts.
        std::vector<double> parse_ms, compile_ms;
        wrpt::batch_session::options bo;
        bo.threads = 1;
        wrpt::batch_session session(bo);
        for (std::size_t e = 0; e < reload_targets; ++e) {
            const std::size_t h =
                session.add_circuit(wrpt::read_bench_string(catalog[e].bench));
            for (int rep = 0; rep < 3; ++rep) {
                for (const std::string& text : catalog[e].variant) {
                    double t0 = now_s();
                    wrpt::netlist nl = wrpt::read_bench_string(text);
                    parse_ms.push_back((now_s() - t0) * 1e3);
                    t0 = now_s();
                    session.replace_circuit(h, std::move(nl));
                    compile_ms.push_back((now_s() - t0) * 1e3);
                }
            }
        }
        res.set("io.parse_ms", median(parse_ms));
        res.set("core.compile_ms", median(compile_ms));

        // svc/service and svc/registry: the same stream, sequentially,
        // through an in-process service configured like the daemon.
        auto replay = [&](bool traced, std::vector<double>* hit_us,
                          std::vector<double>* miss_us, std::vector<double>* reload_ms,
                          std::uint64_t* pool_misses) {
            svc::service::options so;
            so.threads = daemon_threads;
            so.max_views = max_views;
            so.max_cache_entries = max_cache;
            svc::service service(so);
            for (const std::string& l : register_lines)
                service.handle(svc::decode_request(l));
            for (std::size_t i = n_entries; i-- > 0;)
                service.handle(read_request(catalog[i].address(), 1));
            std::vector<svc::request> requests;
            for (const scheduled& s : plan)
                requests.push_back(svc::decode_request(
                    std::string_view(s.line.data(), s.line.size() - 1)));
            // Engine-pool misses, counted request by request from `stats`.
            // A view the registry evicts and rebuilds gets a fresh pool
            // under the same revision, which only consecutive snapshots
            // tell apart; the daemon's two snapshots around its window
            // cannot.
            std::map<std::size_t, svc::pool_stats_payload> last;
            auto count_pool_misses = [&]() {
                svc::request q;
                q.payload = svc::stats_request{};
                const svc::response r = service.handle(q);
                std::map<std::size_t, svc::pool_stats_payload> now;
                for (const auto& p : std::get<svc::stats_response>(r.payload).pools) {
                    const auto it = last.find(p.circuit);
                    const bool same = it != last.end() && it->second.revision == p.revision &&
                                      it->second.misses <= p.misses;
                    *pool_misses += p.misses - (same ? it->second.misses : 0);
                    now[p.circuit] = p;
                }
                last = std::move(now);
            };
            if (traced) {
                count_pool_misses();
                *pool_misses = 0;
            }
            const double t0 = now_s();
            for (std::size_t k = 0; k < requests.size(); ++k) {
                if (!traced) {
                    service.handle(requests[k]);
                    continue;
                }
                const double a = now_s();
                const svc::response r = service.handle(requests[k]);
                const double dt = now_s() - a;
                bool cached = false;
                std::visit([&](const auto& p) {
                    if constexpr (requires { p.cached; }) cached = p.cached;
                }, r.payload);
                if (plan[k].reload) reload_ms->push_back(dt * 1e3);
                else (cached ? hit_us : miss_us)->push_back(dt * 1e6);
                count_pool_misses();
            }
            return now_s() - t0;
        };
        std::vector<double> hit_us, miss_us, reload_ms;
        std::uint64_t pool_misses = 0;
        const double untraced = replay(false, nullptr, nullptr, nullptr, nullptr);
        const double traced = replay(true, &hit_us, &miss_us, &reload_ms, &pool_misses);
        res.set("exec.pool_misses", static_cast<double>(pool_misses));
        res.set("svc.service.hit_us", mean(hit_us));
        res.set("svc.service.miss_us", mean(miss_us));
        res.set("svc.service.reload_ms", mean(reload_ms));
        double in_process = 0.0;
        for (double v : hit_us) in_process += v;
        for (double v : miss_us) in_process += v;
        double e2e = 0.0;
        for (double v : read_lat) e2e += v;
        res.set("attr.unattributed_pct", e2e > 0 ? 100.0 * (e2e - in_process) / e2e : 0.0);
        res.set("attr.trace_overhead_pct",
                untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0);
    }

    res.stamp["stream_digest"] = dg.hex();
    res.stamp["setup_repetitions"] = std::to_string(setup_before + setup_after);
    res.stamp["connections"] = std::to_string(connections);
    res.stamp["arrival_rate"] = std::to_string(arrival_rate);
    res.stamp["max_views"] = std::to_string(max_views);
    res.stamp["read_limit_ms"] = std::to_string(read_limit_s * 1e3);
    return res;
}

}  // namespace perfbench
