// Shared plumbing of the wrpt benchmark program: clocks and order
// statistics, the metric table printed as the run's last line, the
// spawned `wrpt_cli serve` daemon, and a busy-polled line client over the
// library's own svc::stream.
//
// The client deliberately speaks raw lines: request lines are encoded
// with the library's canonical codec before their round trip starts, and
// responses are timestamped on arrival before anything decodes them, so
// client-side codec cost never lands inside a measured round trip.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "svc/request.h"
#include "svc/socket.h"

namespace perfbench {

// --- time and order statistics ---------------------------------------------

/// Monotonic seconds since an arbitrary epoch.
double now_s();

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }
double mean(const std::vector<double>& v);
/// Geometric mean of the positive entries; 0 if there are none.
double geomean(const std::vector<double>& v);

/// Samples tagged with when they were taken, split into equal sub-windows
/// of the timed window. A rate or percentile is reported as its median over
/// the sub-windows, which keeps it steady against the seconds-long slow
/// spells a shared host has (one slow sub-window cannot move it).
class windowed {
public:
    windowed(double begin, double seconds, int windows);
    /// Record `value` taken at absolute time `at` (clamped into the window).
    void add(double at, double value);
    /// Median over sub-windows of samples per second.
    double rate() const;
    /// Median over sub-windows of the q-percentile.
    double percentile(double q) const;

private:
    double begin_, width_;
    std::vector<std::vector<double>> samples_;
};

/// FNV-1a over a byte stream: the request-stream digest of the stamp.
struct digest {
    std::uint64_t h = 1469598103934665603ull;
    void add(std::string_view s);
    void add_u64(std::uint64_t v);
    std::string hex() const;
};

// --- metrics ----------------------------------------------------------------

/// Everything one run reports: the verdict, request counts and metrics.
struct run_result {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;  ///< failed checks, printed to stderr
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> stamp;  ///< provenance, one line

    /// Fail the run; the caller counts the failed requests itself.
    void fail(const std::string& why);
    /// A whole-run check failed: fail the run and count the check as one
    /// failed attempt, so it shows in success_pct.
    void fail_check(const std::string& why);
    void set(const std::string& name, double value) { metrics[name] = value; }
};

/// The metric catalogue: name and unit, in BENCHMARK.json order.
struct metric_def {
    const char* name;
    const char* unit;
};
const std::vector<metric_def>& end_to_end_metrics();
const std::vector<metric_def>& per_layer_metrics();

/// Print the stamp line and then the result line (the run's last line of
/// stdout). With `trace` the per-layer catalogue is printed, otherwise the
/// end-to-end one; a catalogue metric the workload does not exercise reads
/// 0. Returns the process exit code.
int print_result(const run_result& r, bool trace);

// --- the daemon under test --------------------------------------------------

struct daemon_config {
    std::string cli;            ///< path of the wrpt_cli binary
    std::string socket_path;    ///< unix-socket path, relative to the cwd
    std::string log_path;       ///< daemon stderr
    std::vector<std::string> extra_args;
};

/// A `wrpt_cli serve --listen unix:...` child process. The destructor
/// kills it if it is still running and always reaps it.
class daemon_process {
public:
    explicit daemon_process(const daemon_config& cfg);
    ~daemon_process();
    daemon_process(const daemon_process&) = delete;
    daemon_process& operator=(const daemon_process&) = delete;

    /// Ask for a graceful shutdown over a fresh connection and reap the
    /// child; returns true when it exited with status 0.
    bool shutdown();

private:
    daemon_config cfg_;
    int pid_ = -1;
};

/// One client connection: a non-blocking svc::stream under a line buffer
/// that is busy-polled, since sleeping in poll would add the host's
/// wake-up jitter (up to milliseconds on a shared VM) to every measured
/// round trip.
class conn {
public:
    /// Connect to the unix socket, retrying until `timeout_s` elapses.
    conn(const std::string& socket_path, double timeout_s);

    int fd() const { return stream_.fd(); }
    void send_all(std::string_view bytes) { stream_.send_all(bytes, 60000); }
    /// Send whatever the kernel takes without blocking; returns the count.
    std::size_t send_some(std::string_view bytes);
    /// Read one newline-terminated line (newline stripped); throws on EOF
    /// or when nothing arrives for `timeout_s`.
    std::string read_line(double timeout_s = 120.0);
    /// Drain readable bytes into the line buffer without blocking.
    void pump();
    /// Pop one complete line from the buffer if there is one.
    bool pop_line(std::string& out);

    /// Send one request line and wait for its response.
    std::string call(const std::string& line, double timeout_s = 120.0);

private:
    wrpt::svc::stream stream_;
    std::string buf_;
    std::size_t head_ = 0;
};

/// Encode a request with id `id` (canonical wire form, no newline).
std::string encode_line(std::uint64_t id, wrpt::svc::request q);
/// Decode a response line; throws on malformed text.
wrpt::svc::response decode(const std::string& line);
/// One `stats` round trip on `c`.
wrpt::svc::stats_response fetch_stats(conn& c, std::uint64_t id);
/// The checks every workload makes on the daemon's final `stats`: the
/// cache accounting identity probes == hits + misses, and a server section
/// with no dropped queues and no protocol errors.
void check_stats(const wrpt::svc::stats_response& s, run_result& r);
/// Stamp fields every workload reports from the daemon's stats.
void stamp_daemon(const wrpt::svc::stats_response& s, run_result& r);

/// Remove scalar `"key":value` fields from a JSON line (the parts of a
/// response that legitimately differ between two answers to one query).
std::string strip_fields(std::string_view line,
                         std::initializer_list<std::string_view> keys);

}  // namespace perfbench
