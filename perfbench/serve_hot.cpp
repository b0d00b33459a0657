// serve-hot: every timed request is a result-cache hit. Four closed-loop
// connections each keep `depth` requests in flight; the seeded stream
// mixes test_length / optimize / fault_sim on S1 (48 inputs: narrow
// requests and answers) and on the sharded array (2688 inputs: wide ones,
// ~11 KB optimize answers). Compute does nothing here — the reactor, the
// wire codec and the cache lookup do all the work.

#include <poll.h>

#include <deque>
#include <memory>
#include <random>
#include <stdexcept>

#include "gen/sharded.h"
#include "io/bench_io.h"
#include "svc/service.h"
#include "svc/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace svc = wrpt::svc;

// Set-up computes every answer once (~1.5 s). It runs twice before the
// timed window (the second daemon serves it) and once after, so its
// median spans the run rather than one moment.
constexpr int setup_before = 2;
constexpr int setup_after = 1;
constexpr int windows = 5;  ///< sub-windows for rates and percentiles

constexpr std::size_t connections = 4;
/// Requests in flight per connection. Depth 8 shows a rare multi-100-ms
/// stall on wide answers (README, known issue); depth 2 is steady.
constexpr std::size_t depth = 2;
constexpr double latency_limit_s = 0.050;
constexpr std::size_t stream_digest_prefix = 4096;
constexpr std::size_t replay_requests = 4000;

struct unique_request {
    bool wide = false;
    svc::job_kind kind = svc::job_kind::test_length;
    std::string line;        ///< encoded request
    std::string normalized;  ///< warm-up answer without id/cached/elapsed_ms
    double length = 0.0;     ///< N carried by the answer (0 = none)
    double coverage = -1.0;  ///< fault_sim coverage (-1 = none)
    std::size_t answer_bytes = 0;
};

std::vector<unique_request> make_uniques(std::mt19937_64& rng,
                                         std::size_t narrow_inputs,
                                         std::size_t wide_inputs) {
    // Weights near the uniform vector, as in paper-flow: an optimize start
    // far from it costs the sharded array seconds of warm-up, and random
    // far-off vectors make the answers' test lengths swing by seed.
    std::uniform_real_distribution<double> weight(0.4, 0.6);
    std::vector<unique_request> out;
    auto add = [&](bool wide, svc::job_kind kind) {
        svc::request q;
        const std::size_t handle = wide ? 1 : 0;
        wrpt::weight_vector w(wide ? wide_inputs : narrow_inputs);
        for (double& x : w) x = weight(rng);
        switch (kind) {
            case svc::job_kind::test_length: {
                svc::test_length_request t;
                t.circuit = handle;
                t.weights = std::move(w);
                q.payload = std::move(t);
                break;
            }
            case svc::job_kind::optimize: {
                svc::optimize_request o;
                o.circuit = handle;
                o.weights = std::move(w);
                q.payload = std::move(o);
                break;
            }
            case svc::job_kind::fault_sim: {
                svc::fault_sim_request f;
                f.circuit = handle;
                f.weights = std::move(w);
                f.patterns = 1024;
                f.seed = rng() >> 1;
                q.payload = std::move(f);
                break;
            }
        }
        unique_request u;
        u.wide = wide;
        u.kind = kind;
        u.line = encode_line(out.size() + 1000, q) + "\n";
        out.push_back(std::move(u));
    };
    // Several vectors per class keep the answers' mean length and coverage
    // steady across seeds; optimize answers are the expensive warm-up, so
    // they get fewer (the sharded array only one).
    using k = svc::job_kind;
    for (int v = 0; v < 8; ++v) {
        add(false, k::test_length);
        add(false, k::fault_sim);
        if (v < 3) add(false, k::optimize);
        if (v < 4) add(true, k::test_length);
        if (v < 4) add(true, k::fault_sim);
        if (v < 1) add(true, k::optimize);
    }
    return out;
}

/// The seeded mix: half narrow, half wide; kinds equally likely.
std::vector<std::size_t> by_class(const std::vector<unique_request>& u,
                                  bool wide, svc::job_kind kind) {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < u.size(); ++i)
        if (u[i].wide == wide && u[i].kind == kind) out.push_back(i);
    return out;
}

struct in_flight {
    std::size_t unique = 0;
    double sent = 0.0;
};

struct connection_state {
    std::unique_ptr<conn> c;
    std::string outbox;
    std::size_t out_head = 0;
    std::deque<in_flight> pending;
};

}  // namespace

run_result run_serve_hot(const config& cfg) {
    run_result res;
    const std::string sharded_text =
        wrpt::write_bench_string(wrpt::make_sharded_comparators(224, 8));
    std::mt19937_64 rng(cfg.seed * 0x9e3779b97f4a7c15ull + 23);
    std::vector<unique_request> uniques;

    std::vector<std::string> load_lines;
    {
        svc::load_circuit_request a;
        a.suite = "S1";
        svc::load_circuit_request b;
        b.bench = sharded_text;
        b.name = "sharded";
        svc::request q;
        q.payload = a;
        load_lines.push_back(encode_line(1, q));
        q.payload = b;
        load_lines.push_back(encode_line(2, q));
    }

    // --- setup: spawn, connect, load, warm every answer ------------------
    std::vector<double> setup_times;
    std::unique_ptr<daemon_process> d;
    std::vector<connection_state> conns(connections);
    const daemon_config dc = make_daemon_config(cfg);
    auto stop = [&]() {
        for (connection_state& s : conns) s.c.reset();
        if (!d->shutdown()) res.fail_check("daemon did not shut down cleanly");
        d.reset();
    };
    auto setup = [&]() {
        const double t0 = now_s();
        d = std::make_unique<daemon_process>(dc);
        for (connection_state& s : conns)
            s.c = std::make_unique<conn>(dc.socket_path, 30.0);
        std::size_t inputs[2] = {0, 0};
        for (int i = 0; i < 2; ++i) {
            const svc::response r = decode(conns[0].c->call(load_lines[i]));
            const auto* l = std::get_if<svc::load_circuit_response>(&r.payload);
            if (!r.ok || l == nullptr || l->circuit != static_cast<std::size_t>(i))
                throw std::runtime_error("serve-hot: load failed");
            inputs[i] = l->inputs;
        }
        // The distinct requests are fixed; the seed draws the stream.
        if (uniques.empty()) {
            std::mt19937_64 fixed(0x5e7e);
            uniques = make_uniques(fixed, inputs[0], inputs[1]);
        }
        for (unique_request& u : uniques) {
            conns[0].c->send_all(u.line);
            const std::string answer = conns[0].c->read_line();
            const svc::response r = decode(answer);
            if (!r.ok) throw std::runtime_error("serve-hot: warm-up failed");
            std::string normalized = strip_fields(answer, {"id", "cached", "elapsed_ms"});
            if (!u.normalized.empty() && normalized != u.normalized)
                res.fail_check("serve-hot: two daemons answered one request differently");
            u.normalized = std::move(normalized);
            u.answer_bytes = answer.size() + 1;
            if (const auto* t = std::get_if<svc::test_length_response>(&r.payload))
                u.length = t->length.test_length;
            else if (const auto* o = std::get_if<svc::optimize_response>(&r.payload))
                u.length = o->final_length;
            else if (const auto* f = std::get_if<svc::fault_sim_response>(&r.payload))
                u.coverage = f->coverage;
        }
        setup_times.push_back(now_s() - t0);
    };
    for (int rep = 0; rep < setup_before; ++rep) {
        if (d) stop();
        setup();
    }

    // The request stream: a seeded sequence over the unique requests.
    using k = svc::job_kind;
    std::vector<std::vector<std::size_t>> classes;
    for (bool wide : {false, true})
        for (k kind : {k::test_length, k::optimize, k::fault_sim})
            classes.push_back(by_class(uniques, wide, kind));
    std::uniform_int_distribution<std::size_t> pick_class(0, classes.size() - 1);
    auto next_request = [&]() {
        const auto& cls = classes[pick_class(rng)];
        return cls[std::uniform_int_distribution<std::size_t>(0, cls.size() - 1)(rng)];
    };
    std::vector<std::size_t> stream;
    digest dg;
    for (const unique_request& u : uniques) dg.add(u.line);
    for (std::size_t i = 0; i < stream_digest_prefix; ++i) {
        stream.push_back(next_request());
        dg.add_u64(stream.back());
    }
    std::size_t stream_pos = 0;
    auto take = [&]() {
        if (stream_pos == stream.size()) stream.push_back(next_request());
        return stream[stream_pos++];
    };

    const svc::stats_response before = fetch_stats(*conns[0].c, 1);
    stamp_daemon(before, res);

    // --- timed closed loop ---------------------------------------------------
    std::vector<double> lat_all, lat_class[6], lat_width[2];
    const double t_begin = now_s();
    const double t_stop = t_begin + cfg.seconds;
    windowed timed(t_begin, cfg.seconds, windows);
    std::vector<std::size_t> answered(uniques.size(), 0);
    lat_all.reserve(1 << 20);
    std::size_t mismatches = 0;
    double last_progress = t_begin;
    std::vector<pollfd> fds(connections);
    for (;;) {
        const double t = now_s();
        const bool issuing = t < t_stop;
        bool any_pending = false;
        for (std::size_t ci = 0; ci < connections; ++ci) {
            connection_state& s = conns[ci];
            while (issuing && s.pending.size() < depth) {
                const std::size_t u = take();
                s.outbox.append(uniques[u].line);
                s.pending.push_back({u, now_s()});
                ++res.attempted;
            }
            if (s.out_head < s.outbox.size()) {
                s.out_head += s.c->send_some(
                    std::string_view(s.outbox).substr(s.out_head));
                if (s.out_head == s.outbox.size()) {
                    s.outbox.clear();
                    s.out_head = 0;
                }
            }
            any_pending = any_pending || !s.pending.empty();
            fds[ci] = {s.c->fd(),
                       static_cast<short>(POLLIN | (s.outbox.empty() ? 0 : POLLOUT)),
                       0};
        }
        if (!issuing && !any_pending) break;
        if (now_s() - last_progress > 60.0)
            throw std::runtime_error("serve-hot: the daemon stopped answering");
        ::poll(fds.data(), fds.size(), 100);
        for (std::size_t ci = 0; ci < connections; ++ci) {
            if (!(fds[ci].revents & POLLIN)) continue;
            connection_state& s = conns[ci];
            s.c->pump();
            std::string line;
            while (s.c->pop_line(line)) {
                const double arrived = now_s();
                last_progress = arrived;
                if (s.pending.empty())
                    throw std::runtime_error("serve-hot: unexpected answer");
                const in_flight f = s.pending.front();
                s.pending.pop_front();
                const unique_request& u = uniques[f.unique];
                const double us = (arrived - f.sent) * 1e6;
                lat_all.push_back(us);
                if (arrived < t_stop) timed.add(arrived, us);
                lat_width[u.wide ? 1 : 0].push_back(us);
                lat_class[(u.wide ? 3 : 0) + static_cast<int>(u.kind)].push_back(us);
                ++answered[f.unique];
                if (strip_fields(line, {"id", "cached", "elapsed_ms"}) != u.normalized) {
                    ++mismatches;
                    ++res.failed;
                }
            }
        }
    }
    if (mismatches)
        res.fail("serve-hot: " + std::to_string(mismatches) +
                 " answers differ from their warm-up answer");

    const svc::stats_response after = fetch_stats(*conns[0].c, 2);
    check_stats(after, res);
    const std::uint64_t probes = after.cache_probes - before.cache_probes;
    const std::uint64_t hits = after.cache_hits - before.cache_hits;
    const double hit_ratio = probes ? static_cast<double>(hits) / static_cast<double>(probes) : 0.0;
    if (probes == 0 || hits != probes)
        res.fail_check("serve-hot: the cache hit ratio is " + std::to_string(hit_ratio) +
                       ", not 1");
    stop();
    for (int rep = 0; rep < setup_after; ++rep) {
        setup();
        stop();
    }

    // --- metrics -------------------------------------------------------------
    std::size_t within = 0;
    for (double us : lat_all) within += us <= latency_limit_s * 1e6 ? 1 : 0;
    std::vector<double> class_medians;
    for (const auto& v : lat_class) class_medians.push_back(median(v));
    // Bytes weigh each answer once; length and coverage weigh each
    // distinct request once (their logs span orders of magnitude, so a
    // per-answer weighting would swing with the seeded mix).
    double bytes[2] = {0, 0}, count[2] = {0, 0};
    std::vector<double> lengths, coverages;
    for (std::size_t i = 0; i < uniques.size(); ++i) {
        const unique_request& u = uniques[i];
        const double a = static_cast<double>(answered[i]);
        bytes[u.wide] += static_cast<double>(u.answer_bytes) * a;
        count[u.wide] += a;
        if (u.length > 0) lengths.push_back(u.length);
        if (u.coverage >= 0) coverages.push_back(u.coverage);
    }
    const double n = static_cast<double>(lat_all.size());
    const double attempted = static_cast<double>(std::max<std::uint64_t>(res.attempted, 1));
    const double error_rate = static_cast<double>(res.failed) / attempted;
    res.set("setup_s", median(setup_times));
    res.set("success_pct", 100.0 * (1.0 - error_rate));
    res.set("throughput_rps", timed.rate());
    res.set("latency_p50_us", timed.percentile(0.5));
    res.set("latency_p90_us", timed.percentile(0.90));
    res.set("class_geomean_us", geomean(class_medians));
    res.set("slo_pct", n > 0 ? 100.0 * static_cast<double>(within) / n : 0.0);
    res.set("length_geomean", geomean(lengths));
    res.set("coverage_pct", mean(coverages));

    res.set("error_rate", error_rate);
    res.set("hot_rps", timed.rate());
    res.set("hot_p50_us", timed.percentile(0.5));
    res.set("hot_p99_us", timed.percentile(0.99));
    res.set("svc.wire.resp_bytes.narrow", count[0] ? bytes[0] / count[0] : 0.0);
    res.set("svc.wire.resp_bytes.wide", count[1] ? bytes[1] / count[1] : 0.0);
    res.set("svc.cache.hit_ratio", hit_ratio);
    res.set("svc.server.queue_drops", static_cast<double>(after.server.queue_drops));
    res.set("svc.server.protocol_errors", static_cast<double>(after.server.protocol_errors));

    if (cfg.trace) {
        // In-process replay of the stream's head through the same layers
        // a worker runs: decode -> service::handle (a hit) -> encode.
        svc::service::options so;
        so.threads = daemon_threads;
        svc::service service(so);
        for (const std::string& l : load_lines)
            if (!service.handle(svc::decode_request(l)).ok)
                throw std::runtime_error("serve-hot: in-process load failed");
        for (const unique_request& u : uniques)
            if (!service.handle(svc::decode_request(u.line)).ok)
                throw std::runtime_error("serve-hot: in-process warm-up failed");
        const std::size_t m = std::min(replay_requests, stream.size());
        std::string out;
        std::size_t sink = 0;
        double t0 = now_s();
        for (std::size_t i = 0; i < m; ++i) {
            const std::string& l = uniques[stream[i]].line;
            const std::string_view line(l.data(), l.size() - 1);
            const svc::response r = service.handle(svc::decode_request(line));
            svc::encode_into(r, out);
            sink += out.size();
        }
        const double untraced = now_s() - t0;
        std::vector<double> dec[2], hit[2], enc[2];
        t0 = now_s();
        for (std::size_t i = 0; i < m; ++i) {
            const unique_request& u = uniques[stream[i]];
            const std::string_view line(u.line.data(), u.line.size() - 1);
            const double a = now_s();
            const svc::request q = svc::decode_request(line);
            const double b = now_s();
            const svc::response r = service.handle(q);
            const double c = now_s();
            svc::encode_into(r, out);
            const double e = now_s();
            sink += out.size();
            dec[u.wide].push_back((b - a) * 1e6);
            hit[u.wide].push_back((c - b) * 1e6);
            enc[u.wide].push_back((e - c) * 1e6);
            if (r.ok && !std::visit([](const auto& p) {
                    if constexpr (requires { p.cached; }) return p.cached;
                    else return false;
                }, r.payload))
                res.fail_check("serve-hot: in-process replay missed the cache");
        }
        const double traced = now_s() - t0;
        if (sink == 0) res.fail_check("serve-hot: empty in-process answers");
        double attributed = 0.0, e2e = 0.0;
        for (int w = 0; w < 2; ++w) {
            const char* suffix = w ? "wide" : "narrow";
            const double sum = mean(dec[w]) + mean(hit[w]) + mean(enc[w]);
            res.set(std::string("svc.wire.decode_us.") + suffix, mean(dec[w]));
            res.set(std::string("svc.wire.encode_us.") + suffix, mean(enc[w]));
            res.set(std::string("svc.service.hit_us.") + suffix, mean(hit[w]));
            res.set(std::string("svc.transport_us.") + suffix,
                    median(lat_width[w]) - sum);
            attributed += sum * static_cast<double>(lat_width[w].size());
            e2e += mean(lat_width[w]) * static_cast<double>(lat_width[w].size());
        }
        res.set("attr.unattributed_pct", e2e > 0 ? 100.0 * (e2e - attributed) / e2e : 0.0);
        res.set("attr.trace_overhead_pct",
                untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0);
    }

    res.stamp["stream_digest"] = dg.hex();
    res.stamp["setup_repetitions"] = std::to_string(setup_before + setup_after);
    res.stamp["answered"] = std::to_string(lat_all.size());
    res.stamp["connections"] = std::to_string(connections);
    res.stamp["pipeline_depth"] = std::to_string(depth);
    // The wide-pipeline stall (README, known issues) shows here first.
    res.stamp["over_limit"] = std::to_string(lat_all.size() - within);
    res.stamp["max_latency_ms"] = std::to_string(percentile(lat_all, 1.0) / 1e3);
    res.stamp["latency_limit_ms"] = std::to_string(latency_limit_s * 1e3);
    return res;
}

}  // namespace perfbench
