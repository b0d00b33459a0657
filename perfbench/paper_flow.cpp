// paper-flow: the paper's own use. One closed-loop connection; each pass
// optimizes the four starred circuits and the sharded comparator array
// from a fresh seeded start vector and verifies each optimized vector by
// weighted fault simulation at the paper's Table 4 pattern counts. Every
// request is new to the daemon, so nothing is answered from its cache.

#include <memory>
#include <random>
#include <stdexcept>

#include "exec/batch_session.h"
#include "exec/engine_pool.h"
#include "gen/sharded.h"
#include "gen/suite.h"
#include "io/bench_io.h"
#include "opt/optimizer.h"
#include "prob/detect.h"
#include "sim/fault_sim.h"
#include "sim/patterns.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace svc = wrpt::svc;

// Set-up is cheap (~0.1 s): repeated often for a steady median, before
// the timed passes (the last daemon serves them) and after them, so the
// median spans the run rather than one moment.
constexpr int setup_before = 5;
constexpr int setup_after = 4;

struct flow_circuit {
    const char* label;     ///< metric suffix
    const char* suite;     ///< suite name, or nullptr for the sharded array
    std::uint64_t patterns;
};

// Table 4's pattern counts; the sharded array gets c7552's.
constexpr flow_circuit circuits[] = {
    {"S1", "S1", 12000},
    {"S2", "S2", 12000},
    {"c2670", "c2670", 4000},
    {"c7552", "c7552", 4096},
    {"sharded", nullptr, 4096},
};
constexpr std::size_t circuit_count = std::size(circuits);

// A pass slower than this misses the workload's latency limit.
constexpr double pass_limit_s = 20.0;

struct job {
    std::size_t circuit = 0;  ///< index into circuits
    svc::job_request request;  ///< as sent (handle = circuit index)
    double latency_s = 0.0;    ///< daemon round trip
    svc::response answer;
};

/// Time spent in each estimator entry point, split the way the
/// optimizer's stages call them: ANALYSIS is estimate_faults, PREPARE is
/// estimate_probes over F^ and SADDLE_ESCAPE is estimate_probes over the
/// full fault list.
struct estimator_spans {
    double analysis_s = 0.0;
    double prepare_s = 0.0;
    double escape_s = 0.0;
    std::size_t analysis_calls = 0;
    std::size_t probes = 0;
};

/// Forwarding estimator that times every call into the wrapped one.
class traced_estimator final : public wrpt::detect_estimator {
public:
    traced_estimator(wrpt::detect_estimator& inner,
                     const std::vector<wrpt::fault>& full, estimator_spans& s)
        : inner_(inner), full_(full), spans_(s) {}

    std::string name() const override { return inner_.name(); }

    std::vector<double> estimate(const wrpt::netlist& nl,
                                 const std::vector<wrpt::fault>& faults,
                                 const wrpt::weight_vector& w) override {
        const double t = now_s();
        auto out = inner_.estimate(nl, faults, w);
        spans_.analysis_s += now_s() - t;
        ++spans_.analysis_calls;
        return out;
    }

    std::vector<std::vector<double>> estimate_probes(
        const wrpt::netlist& nl, const std::vector<wrpt::fault>& faults,
        const wrpt::weight_vector& base,
        std::span<const wrpt::probe> probes) override {
        const double t = now_s();
        auto out = inner_.estimate_probes(nl, faults, base, probes);
        const double dt = now_s() - t;
        if (faults.data() == full_.data() && faults.size() == full_.size()) {
            spans_.escape_s += dt;
        } else {
            spans_.prepare_s += dt;
            spans_.probes += probes.size();
        }
        return out;
    }

    std::vector<double> estimate_faults(const wrpt::netlist& nl,
                                        std::span<const wrpt::fault> faults,
                                        const wrpt::weight_vector& w,
                                        unsigned threads) override {
        const double t = now_s();
        auto out = inner_.estimate_faults(nl, faults, w, threads);
        spans_.analysis_s += now_s() - t;
        ++spans_.analysis_calls;
        return out;
    }

    void set_threads(unsigned n) override { inner_.set_threads(n); }

private:
    wrpt::detect_estimator& inner_;
    const std::vector<wrpt::fault>& full_;
    estimator_spans& spans_;
};

/// Per-circuit totals of the traced replay.
struct circuit_trace {
    estimator_spans spans;
    double optimize_s = 0.0;   ///< optimize_weights wall time
    double in_opt_estimator_s = 0.0;
    double fault_sim_s = 0.0;
    double sweeps = 0.0;
    double patterns = 0.0;
    std::size_t optimize_jobs = 0;
    std::size_t fault_sim_jobs = 0;
    std::size_t pool_hits = 0;
    std::size_t pool_misses = 0;
};

/// The job as batch_session runs it, with the spans of `t` around each
/// call into prob, opt and sim. Returns the same result batch_session
/// would.
wrpt::batch_session::result traced_run(wrpt::batch_session& session,
                                       const svc::job_request& jr,
                                       circuit_trace& t) {
    wrpt::batch_session::result r;
    if (const auto* p = std::get_if<svc::optimize_request>(&jr)) {
        const wrpt::netlist& nl = session.circuit(p->circuit);
        const auto& faults = session.faults(p->circuit);
        wrpt::cop_detect_estimator cop;
        cop.adopt_pool(session.pool(p->circuit));
        cop.set_threads(p->options.threads);
        traced_estimator est(cop, faults, t.spans);
        const double before = t.spans.analysis_s + t.spans.prepare_s +
                              t.spans.escape_s;
        const double t0 = now_s();
        r.optimized = wrpt::optimize_weights(nl, faults, est, p->weights,
                                             p->options);
        t.optimize_s += now_s() - t0;
        t.in_opt_estimator_s += t.spans.analysis_s + t.spans.prepare_s +
                                t.spans.escape_s - before;
        r.length = wrpt::required_test_length(nl, faults, est,
                                              r.optimized.weights,
                                              p->options.confidence,
                                              p->options.threads);
        t.sweeps += static_cast<double>(r.optimized.history.size());
        ++t.optimize_jobs;
    } else if (const auto* p = std::get_if<svc::fault_sim_request>(&jr)) {
        wrpt::fault_sim_options fo;
        fo.max_patterns = p->patterns;
        fo.threads = 1;
        wrpt::weighted_random_source source(p->weights, p->seed);
        const double t0 = now_s();
        const wrpt::fault_sim_result sim = wrpt::run_fault_simulation(
            session.view(p->circuit), session.faults(p->circuit), source, fo);
        t.fault_sim_s += now_s() - t0;
        r.patterns_applied = sim.patterns_applied;
        r.detected = sim.detected_count;
        t.patterns += static_cast<double>(sim.patterns_applied);
        ++t.fault_sim_jobs;
    }
    return r;
}

/// Bit-for-bit comparison of a daemon answer with an in-process result.
bool same_result(const svc::response& a, const wrpt::batch_session::result& r) {
    if (const auto* o = std::get_if<svc::optimize_response>(&a.payload))
        return o->weights == r.optimized.weights &&
               o->final_length == r.optimized.final_test_length &&
               o->initial_length == r.optimized.initial_test_length &&
               o->length.test_length == r.length.test_length;
    if (const auto* f = std::get_if<svc::fault_sim_response>(&a.payload))
        return f->detected == r.detected &&
               f->patterns == r.patterns_applied;
    return false;
}

/// The requests that load the five circuits, in handle order.
std::vector<std::string> load_lines(const std::string& sharded_text) {
    std::vector<std::string> lines;
    for (const flow_circuit& c : circuits) {
        svc::load_circuit_request l;
        if (c.suite) {
            l.suite = c.suite;
        } else {
            l.bench = sharded_text;
            l.name = c.label;
        }
        svc::request q;
        q.payload = l;
        lines.push_back(encode_line(lines.size() + 1, q));
    }
    return lines;
}

}  // namespace

run_result run_paper_flow(const config& cfg) {
    run_result res;
    const std::string sharded_text =
        wrpt::write_bench_string(wrpt::make_sharded_comparators(224, 8));
    const std::vector<std::string> loads = load_lines(sharded_text);
    digest dg;
    for (const std::string& l : loads) dg.add(l);
    std::uint64_t id = 100;  // request ids after the set-up's

    // --- setup, repeated: spawn, load, warm the engine pools -------------
    const daemon_config dc = make_daemon_config(cfg);
    std::vector<double> setup_times;
    std::unique_ptr<daemon_process> d;
    std::unique_ptr<conn> c;
    std::vector<std::size_t> inputs(circuit_count);
    auto stop = [&]() {
        c.reset();
        if (!d->shutdown()) res.fail_check("daemon did not shut down cleanly");
        d.reset();
    };
    auto setup = [&]() {
        const double t0 = now_s();
        d = std::make_unique<daemon_process>(dc);
        c = std::make_unique<conn>(dc.socket_path, 30.0);
        for (std::size_t i = 0; i < circuit_count; ++i) {
            const svc::response r = decode(c->call(loads[i]));
            const auto* l = std::get_if<svc::load_circuit_response>(&r.payload);
            if (!r.ok || l == nullptr || l->circuit != i)
                throw std::runtime_error("paper-flow: load failed");
            inputs[i] = l->inputs;
        }
        for (std::size_t i = 0; i < circuit_count; ++i) {
            svc::test_length_request t;
            t.circuit = i;
            svc::request q;
            q.payload = t;
            if (!decode(c->call(encode_line(circuit_count + 1 + i, q))).ok)
                throw std::runtime_error("paper-flow: warm-up failed");
        }
        setup_times.push_back(now_s() - t0);
    };
    for (int rep = 0; rep < setup_before; ++rep) {
        if (d) stop();
        setup();
    }
    const svc::stats_response before = fetch_stats(*c, ++id);
    stamp_daemon(before, res);

    // --- timed passes ------------------------------------------------------
    std::mt19937_64 rng(cfg.seed * 0x9e3779b97f4a7c15ull + 11);
    std::uniform_real_distribution<double> start_weight(0.48, 0.52);
    std::vector<job> jobs;
    std::vector<double> pass_times;
    const double t_begin = now_s();
    while (pass_times.size() < 2 || now_s() - t_begin < cfg.seconds) {
        const double pass_t0 = now_s();
        for (std::size_t i = 0; i < circuit_count; ++i) {
            svc::optimize_request o;
            o.circuit = i;
            o.weights.resize(inputs[i]);
            for (double& w : o.weights) w = start_weight(rng);
            job oj{i, o, 0.0, {}};
            svc::request q;
            q.payload = o;
            const std::string line = encode_line(++id, q);
            dg.add(line);
            double t0 = now_s();
            const std::string answer = c->call(line);
            oj.latency_s = now_s() - t0;
            oj.answer = decode(answer);
            ++res.attempted;
            const auto* opt = std::get_if<svc::optimize_response>(&oj.answer.payload);
            if (!oj.answer.ok || opt == nullptr || opt->cached) {
                ++res.failed;
                res.fail(std::string("paper-flow: optimize failed on ") +
                         circuits[i].label);
                continue;
            }
            svc::fault_sim_request f;
            f.circuit = i;
            f.weights = opt->weights;
            f.patterns = circuits[i].patterns;
            f.seed = rng() >> 1;
            jobs.push_back(std::move(oj));
            job fj{i, f, 0.0, {}};
            q.payload = f;
            const std::string fline = encode_line(++id, q);
            dg.add(fline);
            t0 = now_s();
            const std::string fanswer = c->call(fline);
            fj.latency_s = now_s() - t0;
            fj.answer = decode(fanswer);
            ++res.attempted;
            const auto* fs = std::get_if<svc::fault_sim_response>(&fj.answer.payload);
            if (!fj.answer.ok || fs == nullptr || fs->cached) {
                ++res.failed;
                res.fail(std::string("paper-flow: fault_sim failed on ") +
                         circuits[i].label);
                continue;
            }
            jobs.push_back(std::move(fj));
        }
        pass_times.push_back(now_s() - pass_t0);
    }
    const double elapsed = now_s() - t_begin;

    const svc::stats_response after = fetch_stats(*c, ++id);
    check_stats(after, res);
    if (after.cache_hits != before.cache_hits)
        res.fail_check("paper-flow: the result cache answered a request");
    stop();
    for (int rep = 0; rep < setup_after; ++rep) {
        setup();
        stop();
    }

    // --- in-process replay: the check, and the attribution -------------
    wrpt::batch_session::options so;
    so.threads = 1;
    wrpt::batch_session session(so);
    for (const flow_circuit& fc : circuits) {
        wrpt::netlist nl = fc.suite ? wrpt::build_suite_circuit(fc.suite)
                                    : wrpt::read_bench_string(sharded_text, fc.label);
        if (!fc.suite) nl.set_name(fc.label);
        session.add_circuit(std::move(nl));
    }
    for (std::size_t i = 0; i < circuit_count; ++i) {  // warm the pools
        svc::test_length_request t;
        t.circuit = i;
        session.run({t});
    }
    std::vector<double> untraced_s(jobs.size());
    double untraced_total = 0.0;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        const double t0 = now_s();
        const auto r = session.run({jobs[k].request}).front();
        untraced_s[k] = now_s() - t0;
        untraced_total += untraced_s[k];
        if (!same_result(jobs[k].answer, r)) {
            ++res.failed;
            res.fail(std::string("paper-flow: daemon answer differs from the "
                                 "in-process result on ") +
                     circuits[jobs[k].circuit].label);
        }
    }

    std::vector<circuit_trace> traces(circuit_count);
    double traced_total = 0.0;
    if (cfg.trace) {
        for (std::size_t k = 0; k < jobs.size(); ++k) {
            circuit_trace& t = traces[jobs[k].circuit];
            const auto pool_before =
                session.pool(jobs[k].circuit).stats();
            const double t0 = now_s();
            const auto r = traced_run(session, jobs[k].request, t);
            traced_total += now_s() - t0;
            const auto pool_after = session.pool(jobs[k].circuit).stats();
            t.pool_hits += pool_after.hits - pool_before.hits;
            t.pool_misses += pool_after.misses - pool_before.misses;
            if (!same_result(jobs[k].answer, r)) {
                ++res.failed;
                res.fail(std::string("paper-flow: traced replay differs from "
                                     "the daemon on ") +
                         circuits[jobs[k].circuit].label);
            }
        }
    }

    // --- metrics -----------------------------------------------------------
    std::vector<std::vector<double>> opt_lat(circuit_count), sim_lat(circuit_count);
    std::vector<double> lengths, coverages, e2e_by_circuit(circuit_count, 0.0);
    std::vector<double> opt_residual, sim_residual;
    double e2e_total = 0.0;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        const job& j = jobs[k];
        e2e_by_circuit[j.circuit] += j.latency_s;
        e2e_total += j.latency_s;
        const double residual_ms = (j.latency_s - untraced_s[k]) * 1e3;
        if (const auto* o = std::get_if<svc::optimize_response>(&j.answer.payload)) {
            opt_lat[j.circuit].push_back(j.latency_s * 1e6);
            lengths.push_back(o->final_length);
            opt_residual.push_back(residual_ms);
        } else if (const auto* f =
                       std::get_if<svc::fault_sim_response>(&j.answer.payload)) {
            sim_lat[j.circuit].push_back(j.latency_s * 1e6);
            coverages.push_back(f->coverage);
            sim_residual.push_back(residual_ms);
        }
    }
    std::vector<double> class_medians, opt_medians, sim_medians;
    for (std::size_t i = 0; i < circuit_count; ++i) {
        opt_medians.push_back(median(opt_lat[i]));
        sim_medians.push_back(median(sim_lat[i]));
    }
    class_medians = opt_medians;
    class_medians.insert(class_medians.end(), sim_medians.begin(), sim_medians.end());

    std::size_t within = 0;
    for (double p : pass_times) within += p <= pass_limit_s ? 1 : 0;
    const double attempted = static_cast<double>(std::max<std::uint64_t>(res.attempted, 1));
    const double error_rate = static_cast<double>(res.failed) / attempted;

    res.set("setup_s", median(setup_times));
    res.set("success_pct", 100.0 * (1.0 - error_rate));
    res.set("throughput_rps", static_cast<double>(jobs.size()) / elapsed);
    res.set("latency_p50_us", median(pass_times) * 1e6);
    res.set("latency_p90_us", percentile(pass_times, 0.90) * 1e6);
    res.set("class_geomean_us", geomean(class_medians));
    res.set("slo_pct", 100.0 * static_cast<double>(within) /
                           static_cast<double>(pass_times.size()));
    res.set("length_geomean", geomean(lengths));
    res.set("coverage_pct", mean(coverages));

    res.set("error_rate", error_rate);
    res.set("flow_pass_s", median(pass_times));
    res.set("optimize_geomean_ms", geomean(opt_medians) / 1e3);
    res.set("fault_sim_geomean_ms", geomean(sim_medians) / 1e3);
    res.set("opt_length_geomean", geomean(lengths));
    res.set("opt_coverage_pct", mean(coverages));
    res.set("svc.residual_ms.optimize", median(opt_residual));
    res.set("svc.residual_ms.fault_sim", median(sim_residual));
    const std::uint64_t probes = after.cache_probes - before.cache_probes;
    res.set("svc.cache.hit_ratio",
            probes ? static_cast<double>(after.cache_hits - before.cache_hits) /
                         static_cast<double>(probes)
                   : 0.0);
    res.set("svc.server.queue_drops", static_cast<double>(after.server.queue_drops));
    res.set("svc.server.protocol_errors", static_cast<double>(after.server.protocol_errors));

    if (cfg.trace) {
        double attributed_total = 0.0;
        for (std::size_t i = 0; i < circuit_count; ++i) {
            const circuit_trace& t = traces[i];
            const std::string c = circuits[i].label;
            const double nopt = static_cast<double>(std::max<std::size_t>(t.optimize_jobs, 1));
            const double nsim = static_cast<double>(std::max<std::size_t>(t.fault_sim_jobs, 1));
            const double self_s = t.optimize_s - t.in_opt_estimator_s;
            res.set("prob.analysis_ms." + c, t.spans.analysis_s * 1e3 / nopt);
            res.set("prob.analysis_calls." + c,
                    static_cast<double>(t.spans.analysis_calls) / nopt);
            res.set("prob.prepare_ms." + c, t.spans.prepare_s * 1e3 / nopt);
            res.set("prob.probes." + c, static_cast<double>(t.spans.probes) / nopt);
            res.set("prob.escape_ms." + c, t.spans.escape_s * 1e3 / nopt);
            res.set("opt.self_ms." + c, self_s * 1e3 / nopt);
            res.set("opt.self_share." + c, t.optimize_s > 0 ? self_s / t.optimize_s : 0.0);
            res.set("opt.sweeps." + c, t.sweeps / nopt);
            res.set("sim.fault_sim_ms." + c, t.fault_sim_s * 1e3 / nsim);
            res.set("sim.patterns." + c, t.patterns / nsim);
            res.set("exec.pool_hits." + c, static_cast<double>(t.pool_hits) / nopt);
            res.set("exec.pool_misses." + c, static_cast<double>(t.pool_misses) / nopt);
            // Layer spans: the estimator (all ANALYSIS, PREPARE, ESCAPE
            // calls, including the final length report), the optimizer's
            // own time, and the simulator.
            const double attributed = t.spans.analysis_s + t.spans.prepare_s +
                                      t.spans.escape_s + self_s + t.fault_sim_s;
            attributed_total += attributed;
            res.set("attr.unattributed_pct." + c,
                    e2e_by_circuit[i] > 0
                        ? 100.0 * (e2e_by_circuit[i] - attributed) / e2e_by_circuit[i]
                        : 0.0);
        }
        res.set("attr.unattributed_pct",
                e2e_total > 0 ? 100.0 * (e2e_total - attributed_total) / e2e_total : 0.0);
        res.set("attr.trace_overhead_pct",
                untraced_total > 0
                    ? 100.0 * (traced_total - untraced_total) / untraced_total
                    : 0.0);
    }

    res.stamp["stream_digest"] = dg.hex();
    res.stamp["passes"] = std::to_string(pass_times.size());
    res.stamp["setup_repetitions"] = std::to_string(setup_before + setup_after);
    res.stamp["connections"] = "1";
    return res;
}

}  // namespace perfbench
