#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "svc/wire.h"

namespace perfbench {

// --- time and order statistics ---------------------------------------------

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
    double s = 0.0;
    std::size_t n = 0;
    for (double x : v) {
        if (x > 0.0 && std::isfinite(x)) {
            s += std::log(x);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(s / static_cast<double>(n));
}

windowed::windowed(double begin, double seconds, int windows)
    : begin_(begin), width_(seconds / windows), samples_(windows) {}

void windowed::add(double at, double value) {
    const double k = std::floor((at - begin_) / width_);
    const double last = static_cast<double>(samples_.size() - 1);
    samples_[static_cast<std::size_t>(std::clamp(k, 0.0, last))].push_back(value);
}

double windowed::rate() const {
    std::vector<double> r;
    for (const auto& w : samples_) r.push_back(static_cast<double>(w.size()) / width_);
    return median(r);
}

double windowed::percentile(double q) const {
    std::vector<double> p;
    for (const auto& w : samples_)
        if (!w.empty()) p.push_back(perfbench::percentile(w, q));
    return median(p);
}

void digest::add(std::string_view s) {
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    h ^= 0xff;  // record boundary
    h *= 1099511628211ull;
}

void digest::add_u64(std::uint64_t v) {
    add(std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
}

std::string digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

// --- metrics ----------------------------------------------------------------

void run_result::fail(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
}

void run_result::fail_check(const std::string& why) {
    fail(why);
    ++failed;
}

const std::vector<metric_def>& end_to_end_metrics() {
    static const std::vector<metric_def> defs = {
        {"setup_s", "s"},
        {"success_pct", "%"},
        {"throughput_rps", "1/s"},
        {"latency_p50_us", "us"},
        {"latency_p90_us", "us"},
        {"slo_pct", "%"},
        {"length_geomean", "patterns"},
        {"coverage_pct", "%"},
    };
    return defs;
}

const std::vector<metric_def>& per_layer_metrics() {
    static const std::vector<metric_def> defs = [] {
        std::vector<metric_def> d = {
            // The workload-specific end-to-end figures under their own
            // names (0 on the workloads they do not describe).
            {"error_rate", "ratio"},
            {"flow_pass_s", "s"},
            {"optimize_geomean_ms", "ms"},
            {"fault_sim_geomean_ms", "ms"},
            {"opt_length_geomean", "patterns"},
            {"opt_coverage_pct", "%"},
            {"hot_rps", "1/s"},
            {"hot_p50_us", "us"},
            {"hot_p99_us", "us"},
            {"churn_read_p50_us", "us"},
            {"churn_read_p99_us", "us"},
            {"churn_reload_p50_ms", "ms"},
            {"churn_slo_pct", "%"},
            {"class_geomean_us", "us"},
        };
        // paper-flow: prob / opt / sim / exec per circuit. The names are
        // string literals so metric_def can stay a pair of pointers.
#define PERFBENCH_CIRCUIT(c)                                  \
    d.push_back({"prob.analysis_ms." c, "ms"});               \
    d.push_back({"prob.analysis_calls." c, "count"});         \
    d.push_back({"prob.prepare_ms." c, "ms"});                \
    d.push_back({"prob.probes." c, "count"});                 \
    d.push_back({"prob.escape_ms." c, "ms"});                 \
    d.push_back({"opt.self_ms." c, "ms"});                    \
    d.push_back({"opt.self_share." c, "ratio"});              \
    d.push_back({"opt.sweeps." c, "count"});                  \
    d.push_back({"sim.fault_sim_ms." c, "ms"});               \
    d.push_back({"sim.patterns." c, "count"});                \
    d.push_back({"exec.pool_hits." c, "count"});              \
    d.push_back({"exec.pool_misses." c, "count"});            \
    d.push_back({"attr.unattributed_pct." c, "%"});
        PERFBENCH_CIRCUIT("S1")
        PERFBENCH_CIRCUIT("S2")
        PERFBENCH_CIRCUIT("c2670")
        PERFBENCH_CIRCUIT("c7552")
        PERFBENCH_CIRCUIT("sharded")
#undef PERFBENCH_CIRCUIT
        const std::vector<metric_def> rest = {
            {"svc.residual_ms.optimize", "ms"},
            {"svc.residual_ms.fault_sim", "ms"},
            // serve-hot
            {"svc.wire.decode_us.narrow", "us"},
            {"svc.wire.decode_us.wide", "us"},
            {"svc.wire.encode_us.narrow", "us"},
            {"svc.wire.encode_us.wide", "us"},
            {"svc.wire.resp_bytes.narrow", "bytes"},
            {"svc.wire.resp_bytes.wide", "bytes"},
            {"svc.service.hit_us.narrow", "us"},
            {"svc.service.hit_us.wide", "us"},
            {"svc.transport_us.narrow", "us"},
            {"svc.transport_us.wide", "us"},
            {"svc.cache.hit_ratio", "ratio"},
            {"svc.server.queue_drops", "count"},
            {"svc.server.protocol_errors", "count"},
            // catalog-churn
            {"io.parse_ms", "ms"},
            {"core.compile_ms", "ms"},
            {"svc.service.reload_ms", "ms"},
            {"svc.service.miss_us", "us"},
            {"svc.service.hit_us", "us"},
            {"svc.cache.evictions", "count"},
            {"registry.view_evictions", "count"},
            {"registry.view_rebuilds", "count"},
            {"registry.resident", "count"},
            {"exec.pool_misses", "count"},
            {"loadgen.late_p99_ms", "ms"},
            // what the attribution misses, and what tracing costs
            {"attr.unattributed_pct", "%"},
            {"attr.trace_overhead_pct", "%"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        return d;
    }();
    return defs;
}

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out.push_back(' ');
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

int print_result(const run_result& r, bool trace) {
    for (const std::string& p : r.problems)
        std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());

    std::string stamp = "{\"stamp\":{";
    bool first = true;
    for (const auto& [k, v] : r.stamp) {
        if (!first) stamp += ',';
        first = false;
        stamp += "\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
    }
    stamp += "}}";
    std::printf("%s\n", stamp.c_str());

    std::string out = "{\"correct\":";
    out += r.correct ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(r.attempted, 1));
    out += ",\"failed\":" + std::to_string(r.failed);
    out += ",\"metrics\":{";
    first = true;
    for (const metric_def& m : trace ? per_layer_metrics() : end_to_end_metrics()) {
        const auto it = r.metrics.find(m.name);
        const double v = it == r.metrics.end() ? 0.0 : it->second;
        if (!first) out += ',';
        first = false;
        out += "\"" + std::string(m.name) + "\":{\"value\":" + number(v) +
               ",\"unit\":\"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return 0;
}

// --- the daemon under test --------------------------------------------------

daemon_process::daemon_process(const daemon_config& cfg) : cfg_(cfg) {
    ::unlink(cfg_.socket_path.c_str());
    std::vector<std::string> args = {cfg_.cli, "serve", "--listen",
                                     "unix:" + cfg_.socket_path};
    args.insert(args.end(), cfg_.extra_args.begin(), cfg_.extra_args.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const int log = ::open(cfg_.log_path.c_str(),
                           O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log < 0)
        throw std::runtime_error("cannot open daemon log " + cfg_.log_path);
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(log);
        throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
        ::dup2(log, STDERR_FILENO);
        const int devnull = ::open("/dev/null", O_RDWR);
        if (devnull >= 0) {
            ::dup2(devnull, STDIN_FILENO);
            ::dup2(devnull, STDOUT_FILENO);
        }
        ::execv(argv[0], argv.data());
        _exit(127);
    }
    ::close(log);
    pid_ = pid;
}

daemon_process::~daemon_process() {
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
    }
    ::unlink(cfg_.socket_path.c_str());
}

bool daemon_process::shutdown() {
    if (pid_ <= 0) return false;
    try {
        wrpt::svc::client c(wrpt::svc::endpoint::unix_at(cfg_.socket_path), 5000);
        wrpt::svc::request q;
        q.payload = wrpt::svc::shutdown_request{};
        c.roundtrip(q);
    } catch (const std::exception&) {
        return false;  // the destructor kills and reaps
    }
    int status = 0;
    const double deadline = now_s() + 30.0;
    while (now_s() < deadline) {
        const pid_t got = ::waitpid(pid_, &status, WNOHANG);
        if (got == pid_) {
            pid_ = -1;
            return WIFEXITED(status) && WEXITSTATUS(status) == 0;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

// --- client connection ------------------------------------------------------

conn::conn(const std::string& socket_path, double timeout_s) {
    // svc::client keeps its stream to itself, so the connect is made here
    // and the connected fd handed to an svc::stream.
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path)
        throw std::runtime_error("socket path too long: " + socket_path);
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    const double deadline = now_s() + timeout_s;
    for (;;) {
        wrpt::svc::stream s(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
        if (!s) throw std::runtime_error("socket() failed");
        if (::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0) {
            stream_ = std::move(s);
            break;
        }
        if (now_s() > deadline)
            throw std::runtime_error("cannot connect to " + socket_path);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stream_.set_nonblocking(true);
}

std::size_t conn::send_some(std::string_view bytes) {
    std::size_t n = 0;
    if (stream_.send_nonblocking(bytes, n) == wrpt::svc::stream::io_status::closed)
        throw std::runtime_error("daemon closed the connection");
    return n;
}

void conn::pump() {
    using io = wrpt::svc::stream::io_status;
    char chunk[1 << 16];
    for (;;) {
        std::size_t n = 0;
        const io st = stream_.recv_nonblocking(chunk, sizeof chunk, n);
        if (st == io::closed) throw std::runtime_error("daemon closed the connection");
        if (st == io::would_block) return;
        buf_.append(chunk, n);
        if (n < sizeof chunk) return;
    }
}

bool conn::pop_line(std::string& out) {
    const std::size_t nl = buf_.find('\n', head_);
    if (nl == std::string::npos) {
        if (head_ > 0 && head_ == buf_.size()) {
            buf_.clear();
            head_ = 0;
        }
        return false;
    }
    out.assign(buf_, head_, nl - head_);
    head_ = nl + 1;
    if (head_ > (1u << 20)) {
        buf_.erase(0, head_);
        head_ = 0;
    }
    return true;
}

std::string conn::read_line(double timeout_s) {
    std::string line;
    const double deadline = now_s() + timeout_s;
    while (!pop_line(line)) {
        if (now_s() > deadline) throw std::runtime_error("timed out waiting for the daemon");
        pump();
    }
    return line;
}

std::string conn::call(const std::string& line, double timeout_s) {
    send_all(line + "\n");
    return read_line(timeout_s);
}

// --- wire helpers -----------------------------------------------------------

std::string encode_line(std::uint64_t id, wrpt::svc::request q) {
    q.id = id;
    return wrpt::svc::encode(q);
}

wrpt::svc::response decode(const std::string& line) {
    return wrpt::svc::decode_response(line);
}

wrpt::svc::stats_response fetch_stats(conn& c, std::uint64_t id) {
    wrpt::svc::request q;
    q.payload = wrpt::svc::stats_request{};
    const wrpt::svc::response r = decode(c.call(encode_line(id, q)));
    const auto* s = std::get_if<wrpt::svc::stats_response>(&r.payload);
    if (!r.ok || s == nullptr) throw std::runtime_error("stats request failed");
    return *s;
}

void check_stats(const wrpt::svc::stats_response& s, run_result& r) {
    if (s.cache_probes != s.cache_hits + s.cache_misses)
        r.fail_check("stats: cache_probes " + std::to_string(s.cache_probes) +
                     " != hits " + std::to_string(s.cache_hits) + " + misses " +
                     std::to_string(s.cache_misses));
    if (!s.server.present) {
        r.fail_check("stats: no server section");
        return;
    }
    if (s.server.queue_drops != 0)
        r.fail_check("stats: queue_drops " + std::to_string(s.server.queue_drops));
    if (s.server.protocol_errors != 0)
        r.fail_check("stats: protocol_errors " +
                     std::to_string(s.server.protocol_errors));
}

void stamp_daemon(const wrpt::svc::stats_response& s, run_result& r) {
    r.stamp["simd_isa"] = s.simd_isa;
    r.stamp["simd_lanes"] = std::to_string(s.simd_lanes);
    if (s.server.present)
        r.stamp["daemon_workers"] = std::to_string(s.server.workers);
}

std::string strip_fields(std::string_view line,
                         std::initializer_list<std::string_view> keys) {
    std::string out(line);
    for (std::string_view key : keys) {
        const std::string pat = "\"" + std::string(key) + "\":";
        const std::size_t at = out.find(pat);
        if (at == std::string::npos) continue;
        std::size_t end = at + pat.size();
        while (end < out.size() && out[end] != ',' && out[end] != '}') ++end;
        if (end < out.size() && out[end] == ',') ++end;
        out.erase(at, end - at);
    }
    return out;
}

}  // namespace perfbench
