// wrpt_bench: runs one benchmark workload against a freshly spawned
// `wrpt_cli serve` daemon and prints the result as its last stdout line.
//
//   wrpt_bench --workload <paper-flow|serve-hot|catalog-churn> --seed N
//              --seconds S --trace <0|1> --cli <wrpt_cli> --work-dir <dir>
//              [--commit ID]
//
// perfbench/run.py builds the library, the CLI and this program from
// source and calls it; see perfbench/README.md for the workloads and
// metrics.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {

daemon_config make_daemon_config(const config& cfg,
                                 std::vector<std::string> extra) {
    daemon_config d;
    d.cli = cfg.cli;
    d.socket_path = cfg.work_dir + "/wrpt.sock";
    d.log_path = cfg.work_dir + "/daemon.log";
    d.extra_args = {"--threads", std::to_string(daemon_threads), "--workers",
                    std::to_string(daemon_workers)};
    d.extra_args.insert(d.extra_args.end(), extra.begin(), extra.end());
    return d;
}

}  // namespace perfbench

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: wrpt_bench --workload <paper-flow|serve-hot|"
                 "catalog-churn> --seed N --seconds S --trace <0|1> "
                 "--cli PATH --work-dir DIR [--commit ID]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::config cfg;
    std::string workload, commit = "unknown";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") workload = v;
        else if (k == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds") cfg.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace") cfg.trace = v == "1";
        else if (k == "--cli") cfg.cli = v;
        else if (k == "--work-dir") cfg.work_dir = v;
        else if (k == "--commit") commit = v;
        else return usage();
    }
    if (argc % 2 == 0 || workload.empty() || cfg.cli.empty() ||
        cfg.work_dir.empty() || !(cfg.seconds > 0))
        return usage();

    perfbench::run_result r;
    try {
        if (workload == "paper-flow") r = perfbench::run_paper_flow(cfg);
        else if (workload == "serve-hot") r = perfbench::run_serve_hot(cfg);
        else if (workload == "catalog-churn") r = perfbench::run_catalog_churn(cfg);
        else return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "wrpt_bench: %s: %s\n", workload.c_str(), e.what());
        return 1;
    }
    r.stamp["workload"] = workload;
    r.stamp["seed"] = std::to_string(cfg.seed);
    r.stamp["seconds"] = std::to_string(cfg.seconds);
    r.stamp["trace"] = cfg.trace ? "1" : "0";
    r.stamp["commit"] = commit;
    r.stamp["build_type"] = PERFBENCH_BUILD_TYPE;
#ifdef __clang__
    r.stamp["compiler"] = "clang " __VERSION__;
#else
    r.stamp["compiler"] = "gcc " __VERSION__;
#endif
    r.stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
    r.stamp["daemon_threads"] = std::to_string(perfbench::daemon_threads);
    return perfbench::print_result(r, cfg.trace);
}
