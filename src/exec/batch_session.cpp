#include "exec/batch_session.h"

#include "exec/engine_pool.h"
#include "exec/thread_pool.h"
#include "io/bench_io.h"
#include "prob/detect.h"
#include "sim/fault_sim.h"
#include "util/error.h"
#include "util/timer.h"

namespace wrpt {

batch_session::batch_session() : batch_session(options{}) {}

batch_session::batch_session(options opt)
    : options_(opt), pool_(std::make_unique<thread_pool>(opt.threads)) {}

batch_session::~batch_session() = default;

batch_session::compiled_circuit batch_session::compile(netlist nl) const {
    compiled_circuit cc;
    cc.nl = std::make_unique<netlist>(std::move(nl));
    circuit_view::compile_options co;
    co.input_cones = true;
    co.driven_pins = true;
    cc.view = std::make_unique<circuit_view>(
        circuit_view::compile(*cc.nl, co));
    cc.faults = generate_full_faults(*cc.nl);
    cc.pool = std::make_unique<engine_pool>(*cc.view);
    cc.pool->set_capacity(options_.max_engines);
    return cc;
}

std::size_t batch_session::add_circuit(netlist nl) {
    const std::size_t handle = next_handle_++;
    circuits_.try_emplace(handle, compile(std::move(nl)));
    return handle;
}

std::size_t batch_session::add_circuit_file(const std::string& path) {
    return add_circuit(read_bench_file(path));
}

std::uint64_t batch_session::replace_circuit(std::size_t handle, netlist nl) {
    compiled_circuit* cc = circuits_.find(handle);
    require(cc != nullptr, "batch_session: bad circuit handle");
    // Compile the replacement before touching the slot so a failed parse
    // or compile leaves the old circuit fully serviceable.
    *cc = compile(std::move(nl));
    return cc->nl->revision();
}

void batch_session::unload_circuit(std::size_t handle) {
    require(circuits_.erase(handle),
            "batch_session: bad circuit handle");
}

std::uint64_t batch_session::restore_circuit(std::size_t handle, netlist nl) {
    require(handle < next_handle_ && !circuits_.contains(handle),
            "batch_session: restore_circuit needs a retired handle");
    circuits_.try_emplace(handle, compile(std::move(nl)));
    return circuits_.find(handle)->nl->revision();
}

std::vector<std::size_t> batch_session::handles() const {
    std::vector<std::size_t> out;
    out.reserve(circuits_.size());
    circuits_.for_each([&](std::size_t handle, const compiled_circuit&) {
        out.push_back(handle);  // ascending-handle iteration order
    });
    return out;
}

const batch_session::compiled_circuit& batch_session::at(
    std::size_t handle) const {
    // Const (count-free) lookup: run_one() calls this concurrently from
    // every pool worker.
    const compiled_circuit* cc = circuits_.find(handle);
    require(cc != nullptr, "batch_session: bad circuit handle");
    return *cc;
}

const netlist& batch_session::circuit(std::size_t handle) const {
    return *at(handle).nl;
}

const circuit_view& batch_session::view(std::size_t handle) const {
    return *at(handle).view;
}

const std::vector<fault>& batch_session::faults(std::size_t handle) const {
    return at(handle).faults;
}

engine_pool& batch_session::pool(std::size_t handle) const {
    return *at(handle).pool;
}

batch_session::result batch_session::run_one(const svc::job_request& j) const {
    const std::size_t handle = std::visit(
        [](const auto& p) { return p.circuit; }, j);
    const compiled_circuit& cc = at(handle);
    const netlist& nl = *cc.nl;

    result r;
    r.circuit = handle;
    r.revision = nl.revision();
    r.kind = svc::kind_of(j);

    const weight_vector& requested = std::visit(
        [](const auto& p) -> const weight_vector& { return p.weights; }, j);
    const weight_vector weights =
        requested.empty() ? uniform_weights(nl) : requested;
    require(weights.size() == nl.input_count(),
            "batch_session: weight count mismatch");

    stopwatch sw;
    std::visit(
        [&](const auto& p) {
            using T = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<T, svc::test_length_request>) {
                cop_detect_estimator analysis;
                // Adopting the circuit's warm pool shares engines built by
                // earlier jobs and earlier run() calls; the estimator's
                // own state stays private.
                analysis.adopt_pool(*cc.pool);
                const double conf =
                    p.confidence > 0.0 ? p.confidence : options_.confidence;
                r.length = required_test_length(nl, cc.faults, analysis,
                                                weights, conf, p.threads);
            } else if constexpr (std::is_same_v<T, svc::optimize_request>) {
                cop_detect_estimator analysis;
                analysis.adopt_pool(*cc.pool);
                // Stage/probe parallelism stays inside the job's own slice
                // of the pool: jobs are the outer parallel dimension here,
                // so each job defaults to sequential stages (threads 1).
                analysis.set_threads(p.options.threads);
                r.optimized = optimize_weights(nl, cc.faults, analysis,
                                               weights, p.options);
                r.length = required_test_length(
                    nl, cc.faults, analysis, r.optimized.weights,
                    p.options.confidence, p.options.threads);
            } else if constexpr (std::is_same_v<T, svc::fault_sim_request>) {
                fault_sim_options fo;
                fo.max_patterns = p.patterns;
                // Jobs fill the pool; block-level parallelism inside one
                // simulation would oversubscribe it.
                fo.threads = 1;
                weighted_random_source source(weights, p.seed);
                const fault_sim_result sim =
                    run_fault_simulation(*cc.view, cc.faults, source, fo);
                r.patterns_applied = sim.patterns_applied;
                r.fault_count = cc.faults.size();
                r.detected = sim.detected_count;
                r.coverage_percent = sim.coverage_percent(cc.faults.size());
            }
        },
        j);
    r.elapsed_seconds = sw.seconds();
    return r;
}

std::vector<batch_session::result> batch_session::run(
    const std::vector<svc::job_request>& requests) {
    std::vector<result> results(requests.size());
    // One parallel item per job; results are written by job index, so the
    // batch output is identical to a sequential loop for every pool size.
    pool_->parallel_for(requests.size(), [&](std::size_t i) {
        results[i] = run_one(requests[i]);
    });
    return results;
}

std::vector<svc::job_request> batch_session::expand_matrix(
    const svc::matrix_request& m) const {
    std::vector<std::size_t> targets = m.circuits;
    if (targets.empty()) {
        targets.reserve(circuit_count());
        circuits_.for_each([&](std::size_t handle, const compiled_circuit&) {
            targets.push_back(handle);  // ascending-handle iteration order
        });
    }
    std::vector<svc::job_request> requests;
    requests.reserve(targets.size() * m.weight_sets.size());
    for (std::size_t c : targets) {
        for (const weight_vector& w : m.weight_sets) {
            switch (m.kind) {
                case job_kind::test_length: {
                    svc::test_length_request p;
                    p.circuit = c;
                    p.weights = w;
                    p.confidence = m.confidence;
                    p.threads = m.options.threads;
                    requests.push_back(std::move(p));
                    break;
                }
                case job_kind::optimize: {
                    svc::optimize_request p;
                    p.circuit = c;
                    p.weights = w;
                    p.options = m.options;
                    requests.push_back(std::move(p));
                    break;
                }
                case job_kind::fault_sim: {
                    svc::fault_sim_request p;
                    p.circuit = c;
                    p.weights = w;
                    p.patterns = m.patterns;
                    p.seed = m.seed;
                    requests.push_back(std::move(p));
                    break;
                }
            }
        }
    }
    return requests;
}

}  // namespace wrpt
