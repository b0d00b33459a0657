#include "exec/batch_session.h"

#include "exec/engine_pool.h"
#include "exec/thread_pool.h"
#include "io/bench_io.h"
#include "prob/detect.h"
#include "sim/fault_sim.h"
#include "util/error.h"
#include "util/timer.h"

namespace wrpt {

struct batch_session::compiled_state {
    compiled_state(const netlist& nl, std::size_t max_engines)
        : view(circuit_view::compile(
              nl, {.input_cones = true, .driven_pins = true})),
          faults(generate_full_faults(nl)),
          pool(view) {
        pool.set_capacity(max_engines);
    }

    circuit_view view;  // view.source() is the row's netlist
    std::vector<fault> faults;
    // Warm engines over `view`, kept across run() calls; every job's
    // estimator adopts this pool instead of growing its own.
    engine_pool pool;
};

batch_session::batch_session() : batch_session(options{}) {}

batch_session::batch_session(options opt)
    : options_(opt), pool_(std::make_unique<thread_pool>(opt.threads)) {}

batch_session::~batch_session() = default;

std::size_t batch_session::add_circuit(netlist nl) {
    const std::size_t handle = add_uncompiled(std::move(nl), {});
    try {
        compile_circuit(handle);
    } catch (...) {
        circuits_.erase(handle);  // a failed compile leaves no row behind
        throw;
    }
    return handle;
}

std::size_t batch_session::add_circuit_file(const std::string& path) {
    return add_circuit(read_bench_file(path));
}

std::size_t batch_session::add_uncompiled(netlist nl, std::string tenant) {
    const std::size_t handle = circuits_.size();  // rows stay for good
    circuit_row row;
    row.nl = std::make_unique<netlist>(std::move(nl));
    row.tenant = std::move(tenant);
    circuits_.try_emplace(handle, std::move(row));
    return handle;
}

void batch_session::compile_circuit(std::size_t handle) {
    circuit_row& row = row_at(handle);
    if (row.state != nullptr) return;
    row.state = std::make_unique<compiled_state>(*row.nl, options_.max_engines);
    ++compiled_count_;
}

void batch_session::unload_circuit(std::size_t handle) {
    circuit_row& row = row_at(handle);
    require(row.state != nullptr, "batch_session: bad circuit handle");
    row.state.reset();
    --compiled_count_;
}

std::uint64_t batch_session::replace_circuit(std::size_t handle, netlist nl) {
    circuit_row& row = row_at(handle);
    auto fresh = std::make_unique<netlist>(std::move(nl));
    // Compile the replacement before touching the row so a failed compile
    // leaves the old circuit fully serviceable. The old state goes first,
    // while the netlist it was built from is still alive.
    if (row.state != nullptr)
        row.state = std::make_unique<compiled_state>(*fresh,
                                                     options_.max_engines);
    row.nl = std::move(fresh);
    return row.nl->revision();
}

std::vector<std::size_t> batch_session::handles() const {
    std::vector<std::size_t> out;
    out.reserve(compiled_count_);
    circuits_.for_each([&](std::size_t handle, const circuit_row& row) {
        if (row.state != nullptr) out.push_back(handle);  // ascending order
    });
    return out;
}

const batch_session::circuit_row& batch_session::row_at(
    std::size_t handle) const {
    // Const (count-free) lookup: run_one() calls this concurrently from
    // every pool worker.
    const circuit_row* row = circuits_.find(handle);
    require(row != nullptr, "batch_session: bad circuit handle");
    return *row;
}

batch_session::circuit_row& batch_session::row_at(std::size_t handle) {
    circuit_row* row = circuits_.find(handle);
    require(row != nullptr, "batch_session: bad circuit handle");
    return *row;
}

batch_session::compiled_state& batch_session::at(std::size_t handle) const {
    compiled_state* cc = row_at(handle).state.get();
    require(cc != nullptr, "batch_session: bad circuit handle");
    return *cc;
}

const netlist& batch_session::circuit(std::size_t handle) const {
    return *row_at(handle).nl;
}

const circuit_view& batch_session::view(std::size_t handle) const {
    return at(handle).view;
}

const std::vector<fault>& batch_session::faults(std::size_t handle) const {
    return at(handle).faults;
}

engine_pool& batch_session::pool(std::size_t handle) const {
    return at(handle).pool;
}

batch_session::result batch_session::run_one(const svc::job_request& j) const {
    const std::size_t handle = std::visit(
        [](const auto& p) { return p.circuit; }, j);
    compiled_state& cc = at(handle);
    const netlist& nl = cc.view.source();

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
                cop_detect_estimator analysis(pool_.get());
                // Adopting the circuit's warm pool shares engines built by
                // earlier jobs and earlier run() calls; the estimator's
                // own state stays private.
                analysis.adopt_pool(cc.pool);
                const double conf =
                    p.confidence > 0.0 ? p.confidence : options_.confidence;
                r.length = required_test_length(nl, cc.faults, analysis,
                                                weights, conf, p.threads);
            } else if constexpr (std::is_same_v<T, svc::optimize_request>) {
                cop_detect_estimator analysis(pool_.get());
                analysis.adopt_pool(cc.pool);
                // A job's stage and probe shards run on the session pool
                // too, so a tenant's threads never adds a thread: the job
                // drains its own items when every worker is busy. Jobs
                // are the outer parallel dimension here, so each job
                // defaults to sequential stages (threads 1).
                analysis.set_threads(p.options.threads);
                r.optimized = optimize_weights(nl, cc.faults, analysis,
                                               weights, p.options);
                r.length = required_test_length(
                    nl, cc.faults, analysis, r.optimized.weights,
                    p.options.confidence, p.options.threads);
            } else if constexpr (std::is_same_v<T, svc::fault_sim_request>) {
                fault_sim_options fo;
                fo.max_patterns = p.patterns;
                fo.pool = pool_.get();
                // Jobs fill the pool, so the simulation runs as one fault
                // chunk on this job's thread.
                fo.threads = 1;
                weighted_random_source source(weights, p.seed);
                const fault_sim_result sim =
                    run_fault_simulation(cc.view, cc.faults, source, fo);
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
    const std::vector<std::size_t> targets =
        m.circuits.empty() ? handles() : m.circuits;
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
