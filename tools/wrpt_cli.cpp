// wrpt_cli — command-line driver for the library.
//
//   wrpt_cli stats    <circuit>
//   wrpt_cli lengths  <circuit> [--confidence 0.999] [--estimator cop]
//   wrpt_cli optimize <circuit> [--out weights.txt] [--estimator cop]
//                     [--threads N]
//   wrpt_cli simulate <circuit> [--weights file] [--patterns 4096]
//                     [--seed 1] [--threads N]
//   wrpt_cli atpg     <circuit> [--backtracks 512]
//   wrpt_cli selftest <circuit> [--weights file] [--patterns 4096]
//   wrpt_cli batch    <dir>     [--threads N] [--stage-threads N]
//                     [--optimize 1] [--patterns 4096]
//                     [--confidence 0.999] [--max-engines N]
//   wrpt_cli serve    [-|pipe]  [--listen <port|unix:path>] [--threads N]
//                     [--confidence 0.999] [--max-engines N] [--max-cache N]
//                     [--max-views N] [--tenant-quota C[:E[:B]]]
//                     [--max-line BYTES] [--idle-timeout-ms MS]
//                     [--max-connections N] [--workers N]
//                     [--queue-depth N] [--queue-bytes BYTES]
//   wrpt_cli request  <port|unix:path> [--json '<request line>']
//                     [--connect-timeout-ms 5000]
//   wrpt_cli register <port|unix:path> --tenant T --name N
//                     (--bench TXT | --path FILE | --suite NAME)
//   wrpt_cli reload   <port|unix:path> --tenant T --name N
//                     (--bench TXT | --path FILE | --suite NAME)
//   wrpt_cli catalog  <port|unix:path> [--tenant T]
//
// <circuit> is either a .bench file path or a suite name (S1, S2, c432,
// c499, c880, c1355, c1908, c2670, c3540, c5315, c6288, c7552).
// `batch` serves every .bench file under <dir> through one svc::service:
// compile once, then run test-length / optimize / fault-sim jobs for all
// circuits concurrently on the session pool. Unloadable files are
// reported per file and skipped; the run continues and exits with 2 when
// only file loads failed, 3 when any job failed.
// `serve` is the persistent daemon: it reads one JSON request per line
// from stdin ("-", the default) or from a named pipe / file path, routes
// it through svc::service, and streams one JSON response per line to
// stdout. With --listen it instead binds a loopback TCP port or a
// unix-domain socket and serves every connection from one event-driven
// reactor thread plus a fixed worker set (--workers, default one per
// hardware thread) over the same shared service (shared result cache and
// engine pools) — the thread count never scales with connections.
// --queue-depth bounds the parsed requests that may wait per connection
// (beyond it the reactor stops reading that client: flow control);
// --queue-bytes bounds the un-drained response bytes per connection
// (a slow reader beyond it gets a refusal envelope and is dropped;
// surfaced as queue_drops in the stats response). Bad requests
// get per-request error envelopes (the process does not exit); EOF or a
// {"req":"shutdown"} request ends the loop gracefully — over sockets the
// shutdown drains: in-flight requests finish, new connections are
// refused. Input/bind failures are distinct exit codes with the errno
// string: 4 = cannot open the stdin/pipe input, 5 = cannot bind/listen.
// `request` is the matching one-shot client: it connects, sends the
// --json line (or every line read from stdin) and prints one response
// line per request.

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "atpg/compact.h"
#include "atpg/podem.h"
#include "bist/session.h"
#include "exec/batch_session.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "gen/suite.h"
#include "io/bench_io.h"
#include "io/weights_io.h"
#include "opt/optimizer.h"
#include "prob/detect.h"
#include "sim/fault_sim.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/socket.h"
#include "svc/wire.h"
#include "util/error.h"
#include "util/timer.h"

namespace {

using namespace wrpt;

/// A malformed flag value: main prints it with the usage text.
class usage_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Decimal digits only, at most `max`: "-1" and values that would wrap in
/// the caller's narrower type are usage errors, not huge numbers.
std::uint64_t parse_u64(const std::string& name, const std::string& text,
                        std::uint64_t max) {
    std::uint64_t v = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v > max)
        throw usage_error("--" + name + " takes an integer in [0, " +
                          std::to_string(max) + "], got '" + text + "'");
    return v;
}

/// The whole string as one finite decimal number: junk ("abc") and a
/// trailing suffix ("0.5x") are usage errors, not a crash or a silent 0.5.
double parse_double(const std::string& name, const std::string& text) {
    double v = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        throw usage_error("--" + name + " takes a number, got '" + text +
                          "'");
    return v;
}

struct cli_options {
    std::string command;
    std::string circuit;
    std::map<std::string, std::string> flags;

    std::string flag(const std::string& name, const std::string& fallback) const {
        auto it = flags.find(name);
        return it == flags.end() ? fallback : it->second;
    }
    double flag_double(const std::string& name, double fallback) const {
        auto it = flags.find(name);
        return it == flags.end() ? fallback : parse_double(name, it->second);
    }
    std::uint64_t flag_u64(const std::string& name, std::uint64_t fallback,
                           std::uint64_t max = UINT64_MAX) const {
        auto it = flags.find(name);
        return it == flags.end() ? fallback : parse_u64(name, it->second, max);
    }
};

int usage();

netlist load_circuit(const std::string& spec) {
    std::ifstream probe(spec);
    if (probe.good()) return read_bench_file(spec);
    return build_suite_circuit(spec);
}

/// The command's one compute pool: `threads` threads in all, this one
/// included (0 = one per hardware thread). Null when that is one thread.
std::unique_ptr<thread_pool> compute_pool(unsigned threads) {
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    return threads > 1 ? std::make_unique<thread_pool>(threads - 1)
                       : nullptr;
}

weight_vector load_weights(const cli_options& opt, const netlist& nl) {
    const std::string path = opt.flag("weights", "");
    if (path.empty()) return uniform_weights(nl);
    return read_weights_file(path, nl);
}

int cmd_stats(const cli_options& opt) {
    const netlist nl = load_circuit(opt.circuit);
    const netlist_stats st = nl.stats();
    const auto faults = generate_full_faults(nl);
    const collapsed_faults cf = collapse_faults(nl, faults);
    std::printf("circuit %s\n", nl.name().c_str());
    std::printf("  inputs %zu  outputs %zu  gates %zu  depth %zu\n",
                st.input_count, st.output_count, st.gate_count, st.depth);
    std::printf("  lines %zu  faults %zu  collapsed classes %zu\n",
                st.line_count, faults.size(), cf.class_count());
    return 0;
}

int cmd_lengths(const cli_options& opt) {
    const netlist nl = load_circuit(opt.circuit);
    const auto faults = generate_full_faults(nl);
    auto estimator = make_estimator(opt.flag("estimator", "cop"));
    const double conf = opt.flag_double("confidence", 0.999);
    const auto rep = required_test_length(nl, faults, *estimator,
                                          load_weights(opt, nl), conf);
    std::printf("confidence %.4f  estimator %s\n", conf,
                estimator->name().c_str());
    if (!rep.feasible) {
        std::printf("infeasible: %zu faults estimated undetectable\n",
                    rep.zero_prob_faults);
        return 1;
    }
    std::printf("required test length N = %.4g (hardest p_f = %.3g, "
                "%zu relevant faults)\n",
                rep.test_length, rep.hardest_probability,
                rep.relevant_faults);
    return 0;
}

int cmd_optimize(const cli_options& opt) {
    const netlist nl = load_circuit(opt.circuit);
    const auto faults = generate_full_faults(nl);
    // --threads sizes the one pool every parallel stage runs on: batched
    // PREPARE on pool engines (set_threads) and the sharded ANALYSIS
    // stage (optimize_options::threads). Results are bit-identical for
    // every thread count.
    const unsigned threads =
        static_cast<unsigned>(opt.flag_u64("threads", 1, UINT_MAX));
    const auto pool = compute_pool(threads);
    auto estimator = make_estimator(opt.flag("estimator", "cop"), pool.get());
    estimator->set_threads(threads);
    optimize_options oo;
    oo.threads = threads;
    oo.confidence = opt.flag_double("confidence", 0.999);
    stopwatch sw;
    const optimize_result res = optimize_weights(
        nl, faults, *estimator, load_weights(opt, nl), oo);
    std::printf("N: %.4g -> %.4g  (%.3g x) in %.2f s, %zu sweeps, "
                "%zu analyses\n",
                res.initial_test_length, res.final_test_length,
                res.initial_test_length /
                    std::max(res.final_test_length, 1.0),
                sw.seconds(), res.history.size(), res.analysis_calls);
    const std::string out = opt.flag("out", "");
    if (!out.empty()) {
        write_weights_file(out, nl, res.weights);
        std::printf("weights written to %s\n", out.c_str());
    } else {
        for (std::size_t i = 0; i < res.weights.size(); ++i)
            std::printf("%s %.2f\n", nl.node_name(nl.inputs()[i]).c_str(),
                        res.weights[i]);
    }
    return 0;
}

int cmd_simulate(const cli_options& opt) {
    const netlist nl = load_circuit(opt.circuit);
    const auto faults = generate_full_faults(nl);
    fault_sim_options fo;
    fo.max_patterns = opt.flag_u64("patterns", 4096);
    // Fault chunks on a pool of --threads threads in all (0 = one per
    // hardware thread); 1 runs one chunk here. The counts are identical
    // for every value.
    fo.threads = static_cast<unsigned>(opt.flag_u64("threads", 0, UINT_MAX));
    const auto pool = compute_pool(fo.threads);
    fo.pool = pool.get();
    stopwatch sw;
    const auto res = run_weighted_fault_simulation(
        nl, faults, load_weights(opt, nl), opt.flag_u64("seed", 1), fo);
    std::printf("%llu patterns: %zu/%zu faults detected (%.2f%%) in %.2f s\n",
                static_cast<unsigned long long>(res.patterns_applied),
                res.detected_count, faults.size(),
                res.coverage_percent(faults.size()), sw.seconds());
    return 0;
}

int cmd_atpg(const cli_options& opt) {
    const netlist nl = load_circuit(opt.circuit);
    const auto faults = generate_full_faults(nl);
    podem_options po;
    po.backtrack_limit = opt.flag_u64("backtracks", 512);
    stopwatch sw;
    const fault_classification cls = classify_faults(nl, faults, po);
    std::printf("PODEM over %zu faults: %zu detected, %zu redundant, "
                "%zu aborted in %.2f s\n",
                faults.size(), cls.detected, cls.redundant, cls.aborted,
                sw.seconds());
    const auto compacted = compact_test_set(nl, faults, cls.tests);
    std::printf("test set: %zu patterns, %zu after compaction\n",
                cls.tests.size(), compacted.patterns.size());
    return cls.aborted == 0 ? 0 : 2;
}

int cmd_selftest(const cli_options& opt) {
    const netlist nl = load_circuit(opt.circuit);
    const auto faults = generate_full_faults(nl);
    bist_session_options bo;
    bo.patterns = opt.flag_u64("patterns", 4096);
    const auto res =
        run_bist_session(nl, faults, load_weights(opt, nl), bo);
    std::printf("self test: %llu patterns, signature %08llx, coverage "
                "%.2f%% (aliasing ~%.1e)\n",
                static_cast<unsigned long long>(res.patterns_applied),
                static_cast<unsigned long long>(res.golden_signature),
                res.coverage_percent(), res.aliasing_probability);
    return 0;
}

// `batch` rides the same unified service API as the serve daemon: file
// loads are load_circuit requests (per-file error envelopes instead of
// exceptions), the per-circuit work is two matrix requests answered
// through the result cache, and the summary reports per-file wall time
// plus the cache hit/miss split.
//
// Exit codes: 0 = clean; 2 = some files failed to load but every job of
// the loadable remainder succeeded; 3 = at least one job failed.
int cmd_batch(const cli_options& opt) {
    namespace fs = std::filesystem;
    if (!fs::is_directory(opt.circuit)) {
        std::fprintf(stderr, "batch: '%s' is not a directory\n",
                     opt.circuit.c_str());
        return 1;
    }
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(opt.circuit))
        if (entry.is_regular_file() && entry.path().extension() == ".bench")
            files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        std::fprintf(stderr, "batch: no .bench files under %s\n",
                     opt.circuit.c_str());
        return 1;
    }

    svc::service::options so;
    so.threads = static_cast<unsigned>(opt.flag_u64("threads", 0, UINT_MAX));
    so.confidence = opt.flag_double("confidence", 0.999);
    so.max_engines = opt.flag_u64("max-engines", 0);
    svc::service service(so);
    stopwatch compile_sw;
    // An unreadable or corrupt .bench file fails alone: the service
    // answers its load request with an error envelope, the file is
    // reported on stderr and the rest of the directory still runs.
    std::size_t failed_files = 0;
    for (const std::string& f : files) {
        svc::request q;
        svc::load_circuit_request load;
        load.path = f;
        q.payload = std::move(load);
        const svc::response r = service.handle(q);
        if (!r.ok) {
            std::fprintf(stderr, "batch: skipping %s: %s\n", f.c_str(),
                         std::get<svc::error_response>(r.payload)
                             .message.c_str());
            ++failed_files;
        }
    }
    const double compile_s = compile_sw.seconds();
    const batch_session& session = service.session();
    if (session.circuit_count() == 0) {
        std::fprintf(stderr, "batch: no loadable .bench files under %s\n",
                     opt.circuit.c_str());
        return 1;
    }

    const bool optimize = opt.flag_u64("optimize", 1) != 0;
    // Per-job stage threads (sharded ANALYSIS and PREPARE inside one job,
    // on the session pool); default 1 because the jobs themselves fill
    // that pool.
    const unsigned stage_threads =
        static_cast<unsigned>(opt.flag_u64("stage-threads", 1, UINT_MAX));

    // Two matrix requests over every circuit at uniform weights: the
    // analysis kind (optimize or test_length) and the validating fault
    // simulation. Each matrix runs its jobs concurrently on the session
    // pool; repeated invocations of the same work would be cache hits.
    svc::request analysis_req;
    {
        svc::matrix_request m;
        m.kind = optimize ? svc::job_kind::optimize
                          : svc::job_kind::test_length;
        m.weight_sets = {weight_vector{}};  // uniform
        m.options.confidence = so.confidence;
        m.options.threads = stage_threads;
        m.confidence = so.confidence;
        analysis_req.payload = std::move(m);
    }
    svc::request sim_req;
    {
        svc::matrix_request m;
        m.kind = svc::job_kind::fault_sim;
        m.weight_sets = {weight_vector{}};
        m.patterns = opt.flag_u64("patterns", 4096);
        m.seed = opt.flag_u64("seed", 1);
        sim_req.payload = std::move(m);
    }
    stopwatch run_sw;
    const svc::response analysis_resp = service.handle(analysis_req);
    const svc::response sim_resp = service.handle(sim_req);
    const double run_s = run_sw.seconds();
    if (!analysis_resp.ok || !sim_resp.ok) {
        const auto& failed = !analysis_resp.ok ? analysis_resp : sim_resp;
        std::fprintf(stderr, "batch: %s\n",
                     std::get<svc::error_response>(failed.payload)
                         .message.c_str());
        return 3;
    }
    const auto& analysis =
        std::get<svc::matrix_response>(analysis_resp.payload).results;
    const auto& sims = std::get<svc::matrix_response>(sim_resp.payload).results;

    const svc::service::cache_counters cache = service.cache_stats();
    std::printf("%zu circuits compiled in %.2f s, %zu jobs in %.2f s, "
                "cache %llu hit / %llu miss\n",
                session.circuit_count(), compile_s,
                analysis.size() + sims.size(), run_s,
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses));
    std::size_t failed_jobs = 0;
    for (std::size_t c = 0; c < session.circuit_count(); ++c) {
        const netlist& nl = session.circuit(c);
        std::printf("%-24s inputs %4zu  faults %5zu  ", nl.name().c_str(),
                    nl.input_count(), session.faults(c).size());
        double job_ms = 0.0;
        bool job_cached = false;
        if (!analysis[c].ok) {
            ++failed_jobs;
            std::printf("FAILED: %s",
                        std::get<svc::error_response>(analysis[c].payload)
                            .message.c_str());
        } else if (optimize) {
            const auto& ra =
                std::get<svc::optimize_response>(analysis[c].payload);
            std::printf("N %.4g -> %.4g  ", ra.initial_length,
                        ra.final_length);
            job_ms += ra.elapsed_ms;
            job_cached = ra.cached;
        } else {
            const auto& ra =
                std::get<svc::test_length_response>(analysis[c].payload);
            if (ra.length.feasible)
                std::printf("N %.4g  ", ra.length.test_length);
            else
                std::printf("N infeasible  ");
            job_ms += ra.elapsed_ms;
            job_cached = ra.cached;
        }
        if (!sims[c].ok) {
            ++failed_jobs;
            std::printf("  sim FAILED: %s",
                        std::get<svc::error_response>(sims[c].payload)
                            .message.c_str());
        } else {
            const auto& rs =
                std::get<svc::fault_sim_response>(sims[c].payload);
            std::printf("coverage %.2f%% @ %llu patterns", rs.coverage,
                        static_cast<unsigned long long>(rs.patterns));
            job_ms += rs.elapsed_ms;
        }
        std::printf("  [%.1f ms%s]\n", job_ms, job_cached ? ", cached" : "");
    }
    if (failed_jobs > 0) {
        std::fprintf(stderr, "batch: %zu job(s) failed\n", failed_jobs);
        return 3;
    }
    if (failed_files > 0) {
        std::fprintf(stderr, "batch: %zu file(s) failed to load\n",
                     failed_files);
        return 2;
    }
    return 0;
}

// Distinct, scriptable failure exit codes for the daemon: supervisors
// (and the CI smoke) tell "the input path is bad" apart from "the socket
// cannot be bound" without parsing stderr.
constexpr int exit_serve_open_failure = 4;
constexpr int exit_serve_bind_failure = 5;

// --tenant-quota C[:E[:B]]: per-tenant registered-circuit cap, engine
// cap per compiled view, and result-cache byte cap; any omitted or zero
// field stays unbounded.
svc::registry::tenant_quota parse_tenant_quota(const std::string& spec) {
    svc::registry::tenant_quota q;
    if (spec.empty()) return q;
    std::istringstream in(spec);
    std::string part;
    for (int field = 0; std::getline(in, part, ':'); ++field) {
        const std::uint64_t v =
            part.empty() ? 0 : parse_u64("tenant-quota", part, UINT64_MAX);
        if (field == 0)
            q.max_circuits = static_cast<std::size_t>(v);
        else if (field == 1)
            q.max_engines = static_cast<std::size_t>(v);
        else if (field == 2)
            q.max_cache_bytes = v;
        else
            throw wrpt::error("serve: --tenant-quota takes at most three "
                              "':'-separated fields (circuits:engines:"
                              "cache-bytes)");
    }
    return q;
}

// The persistent daemon: one JSON request per line in, one JSON response
// per line out (flushed per response, so pipes see answers immediately).
// Request-level failures — malformed JSON, unknown kinds, bad handles —
// become error envelopes; only EOF or a shutdown request ends the loop.
// With --listen the same sessions run one-per-connection on a loopback
// TCP port or unix-domain socket (svc::server), sharing one service.
int cmd_serve(const cli_options& opt) {
    svc::service::options so;
    so.threads = static_cast<unsigned>(opt.flag_u64("threads", 0, UINT_MAX));
    so.confidence = opt.flag_double("confidence", 0.999);
    so.max_engines = opt.flag_u64("max-engines", 0);
    so.max_cache_entries = opt.flag_u64("max-cache", 0);
    so.max_views = opt.flag_u64("max-views", 0);
    so.tenant_quota = parse_tenant_quota(opt.flag("tenant-quota", ""));

    // Startup banner on stderr (stdout stays a pure response stream):
    // the registry caps behind every quota refusal and view eviction
    // (0 = unbounded).
    std::fprintf(stderr,
                 "serve: registry max-views %zu, tenant quota %zu circuits "
                 "/ %zu engines / %llu cache bytes\n",
                 so.max_views, so.tenant_quota.max_circuits,
                 so.tenant_quota.max_engines,
                 static_cast<unsigned long long>(
                     so.tenant_quota.max_cache_bytes));

    const std::string listen = opt.flag("listen", "");
    if (!listen.empty()) {
        // A malformed spec is an argument typo, not a bind failure: keep
        // exit 5 for "the endpoint itself cannot be bound".
        svc::endpoint ep;
        try {
            ep = svc::endpoint::parse(listen);
        } catch (const svc::socket_error& e) {
            std::fprintf(stderr, "serve: %s\n", e.what());
            return usage();
        }
        try {
            svc::server::options vo;
            vo.max_line_bytes = opt.flag_u64("max-line", vo.max_line_bytes);
            vo.idle_timeout_ms = static_cast<int>(
                opt.flag_u64("idle-timeout-ms", 0, INT_MAX));
            vo.send_timeout_ms = static_cast<int>(opt.flag_u64(
                "send-timeout-ms",
                static_cast<std::uint64_t>(vo.send_timeout_ms), INT_MAX));
            vo.max_connections = opt.flag_u64("max-connections", 0);
            vo.workers =
                static_cast<unsigned>(opt.flag_u64("workers", 0, UINT_MAX));
            vo.max_pending_requests =
                opt.flag_u64("queue-depth", vo.max_pending_requests);
            vo.max_queue_bytes =
                opt.flag_u64("queue-bytes", vo.max_queue_bytes);
            svc::service service(so);
            svc::server server(service, ep, vo);
            // The resolved endpoint (ephemeral TCP ports included) goes to
            // stderr so stdout stays a pure response stream in pipe mode
            // and scripts can scrape the port.
            std::fprintf(stderr, "serve: listening on %s\n",
                         server.where().describe().c_str());
            std::fprintf(stderr, "serve: reactor + %zu workers\n",
                         server.stats().workers);
            server.wait();  // returns once a shutdown request drained us
            return 0;
        } catch (const svc::socket_error& e) {
            std::fprintf(stderr, "serve: %s\n", e.what());
            return exit_serve_bind_failure;
        }
    }

    std::ifstream file;
    std::istream* in = &std::cin;
    if (opt.circuit != "-") {
        errno = 0;
        file.open(opt.circuit);
        if (!file.good()) {
            // Surface the errno string — "exits silently" under shells
            // that swallow a bare failure made unwritable pipe paths
            // undebuggable.
            std::fprintf(stderr, "serve: cannot open '%s': %s\n",
                         opt.circuit.c_str(),
                         errno != 0 ? std::strerror(errno) : "open failed");
            return exit_serve_open_failure;
        }
        in = &file;
    }
    svc::service service(so);

    std::string line;
    std::string out;  // reused, like a socket worker's scratch buffer
    while (std::getline(*in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        svc::response r;
        bool shutdown = false;
        try {
            const svc::request q = svc::decode_request(line);
            shutdown = q.kind() == svc::request_kind::shutdown;
            r = service.handle(q);
        } catch (const std::exception& e) {
            r = svc::make_error(svc::extract_id(line), e.what());
        }
        svc::encode_into(r, out);
        out.push_back('\n');
        std::fwrite(out.data(), 1, out.size(), stdout);
        std::fflush(stdout);
        if (shutdown) break;
    }
    return 0;
}

// One-shot client for a socket daemon: send --json (or each stdin line)
// over one connection, print one response line per request. The bounded
// connect retry absorbs the daemon's startup race in scripts.
int cmd_request(const cli_options& opt) {
    try {
        const svc::endpoint ep = svc::endpoint::parse(opt.circuit);
        svc::client client(ep, static_cast<int>(opt.flag_u64(
                                   "connect-timeout-ms", 5000, INT_MAX)));
        const std::string one = opt.flag("json", "");
        std::istringstream single(one);
        std::istream* in =
            one.empty() ? static_cast<std::istream*>(&std::cin) : &single;
        std::string line;
        while (std::getline(*in, line)) {
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            client.send_line(line);
            std::string resp;
            if (client.recv_line(resp) != svc::line_status::ok) {
                std::fprintf(stderr,
                             "request: server closed before answering\n");
                return 1;
            }
            std::fwrite(resp.data(), 1, resp.size(), stdout);
            std::fputc('\n', stdout);
            std::fflush(stdout);
        }
        return 0;
    } catch (const svc::socket_error& e) {
        std::fprintf(stderr, "request: %s\n", e.what());
        return 1;
    }
}

// One round trip to a daemon with a typed registry request; the raw
// response line is printed as-is (the JSON envelope is the scriptable
// interface), and the exit code mirrors the envelope's ok flag.
int registry_roundtrip(const cli_options& opt, svc::request q) {
    try {
        const svc::endpoint ep = svc::endpoint::parse(opt.circuit);
        svc::client client(ep, static_cast<int>(opt.flag_u64(
                                   "connect-timeout-ms", 5000, INT_MAX)));
        client.send_line(svc::encode(q));
        std::string resp;
        if (client.recv_line(resp) != svc::line_status::ok) {
            std::fprintf(stderr, "%s: server closed before answering\n",
                         opt.command.c_str());
            return 1;
        }
        std::fwrite(resp.data(), 1, resp.size(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
        const svc::response r = svc::decode_response(resp);
        return r.ok ? 0 : 1;
    } catch (const svc::socket_error& e) {
        std::fprintf(stderr, "%s: %s\n", opt.command.c_str(), e.what());
        return 1;
    }
}

// `register` / `reload`: name a circuit "tenant/name" on a running
// daemon. The source flags mirror load_circuit's (--bench inline text,
// --path a .bench file, --suite a generator name); --path is read here,
// client-side, so the daemon never needs the client's filesystem.
int cmd_register(const cli_options& opt, bool reload) {
    svc::request q;
    q.id = opt.flag_u64("id", 0);
    const std::string path = opt.flag("path", "");
    std::string bench = opt.flag("bench", "");
    if (!path.empty()) {
        std::ifstream file(path);
        if (!file.good())
            throw wrpt::error(opt.command + ": cannot open '" + path + "'");
        std::ostringstream text;
        text << file.rdbuf();
        bench = text.str();
    }
    if (reload) {
        svc::reload_circuit_request p;
        p.tenant = opt.flag("tenant", "");
        p.name = opt.flag("name", "");
        p.bench = std::move(bench);
        p.suite = opt.flag("suite", "");
        q.payload = std::move(p);
    } else {
        svc::register_circuit_request p;
        p.tenant = opt.flag("tenant", "");
        p.name = opt.flag("name", "");
        p.bench = std::move(bench);
        p.suite = opt.flag("suite", "");
        q.payload = std::move(p);
    }
    return registry_roundtrip(opt, std::move(q));
}

// `catalog`: list a daemon's registered circuits, optionally filtered to
// one tenant.
int cmd_catalog(const cli_options& opt) {
    svc::request q;
    q.id = opt.flag_u64("id", 0);
    svc::list_circuits_request p;
    p.tenant = opt.flag("tenant", "");
    q.payload = std::move(p);
    return registry_roundtrip(opt, std::move(q));
}

int usage() {
    std::fprintf(
        stderr,
        "usage: wrpt_cli <stats|lengths|optimize|simulate|atpg|selftest|"
        "batch|serve|request|register|reload|catalog> "
        "<circuit|dir|-|endpoint> [--flag value]...\n"
        "  circuit: .bench file or suite name (S1, S2, c432...c7552)\n"
        "  serve reads JSON-lines requests from stdin (-) or a pipe path,\n"
        "    or --listen <port|unix:path> accepts concurrent connections\n"
        "    on one reactor thread + a fixed --workers pool\n"
        "    (exit 4 = input open failure, 5 = socket bind failure)\n"
        "  request <port|unix:path> sends --json or stdin lines to a "
        "daemon\n"
        "  register/reload <port|unix:path> --tenant T --name N with one "
        "of --bench/--path/--suite; catalog <port|unix:path> [--tenant T]\n"
        "  flags: --confidence --estimator --weights --out --patterns "
        "--seed --backtracks --threads --stage-threads --optimize "
        "--max-engines --max-cache --max-views --tenant-quota --listen "
        "--max-line --idle-timeout-ms "
        "--send-timeout-ms --max-connections --workers --queue-depth "
        "--queue-bytes --json --connect-timeout-ms --tenant --name "
        "--bench --path --suite\n");
    return 64;
}

}  // namespace

int main(int argc, char** argv) {
    cli_options opt;
    if (argc < 2) return usage();
    opt.command = argv[1];
    int flag_start;
    if (opt.command == "serve" &&
        (argc == 2 || std::strncmp(argv[2], "--", 2) == 0)) {
        // serve's positional is optional: `serve --threads 1` reads
        // stdin, same as `serve - --threads 1`.
        opt.circuit = "-";
        flag_start = 2;
    } else {
        if (argc < 3) return usage();
        opt.circuit = argv[2];
        flag_start = 3;
    }
    for (int i = flag_start; i + 1 < argc; i += 2) {
        const char* name = argv[i];
        if (std::strncmp(name, "--", 2) != 0) return usage();
        opt.flags[name + 2] = argv[i + 1];
    }
    try {
        if (opt.command == "stats") return cmd_stats(opt);
        if (opt.command == "lengths") return cmd_lengths(opt);
        if (opt.command == "optimize") return cmd_optimize(opt);
        if (opt.command == "simulate") return cmd_simulate(opt);
        if (opt.command == "atpg") return cmd_atpg(opt);
        if (opt.command == "selftest") return cmd_selftest(opt);
        if (opt.command == "batch") return cmd_batch(opt);
        if (opt.command == "serve") return cmd_serve(opt);
        if (opt.command == "request") return cmd_request(opt);
        if (opt.command == "register") return cmd_register(opt, false);
        if (opt.command == "reload") return cmd_register(opt, true);
        if (opt.command == "catalog") return cmd_catalog(opt);
        return usage();
    } catch (const usage_error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return usage();
    } catch (const wrpt::error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
