// The three benchmark workloads. Each one spawns its own daemon, drives
// it from this process, checks every answer, and — with `trace` — replays
// the same work in-process with spans around calls into the library's
// modules (prob, opt, sim, exec, io, core, svc) to attribute the time.

#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct config {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string cli;       ///< wrpt_cli binary
    std::string work_dir;  ///< scratch space for the socket and daemon log
};

/// Fixed settings shared by the workloads (recorded in every stamp).
inline constexpr unsigned daemon_threads = 2;   ///< --threads
inline constexpr unsigned daemon_workers = 2;   ///< --workers

daemon_config make_daemon_config(const config& cfg,
                                 std::vector<std::string> extra = {});

run_result run_paper_flow(const config& cfg);
run_result run_serve_hot(const config& cfg);
run_result run_catalog_churn(const config& cfg);

}  // namespace perfbench
