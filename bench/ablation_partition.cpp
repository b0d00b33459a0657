// Ablation C: partitioned optimization (the paper's section 5.3 future
// work, implemented here). The pathological circuit pairs a wide AND with
// a wide NOR over the same inputs: one weight tuple cannot make both
// likely; two sessions with different tuples can.

#include <cstdio>
#include <iostream>

#include "exec/thread_pool.h"
#include "gen/pathological.h"
#include "io/weights_io.h"
#include "opt/partition.h"
#include "prob/detect.h"
#include "sim/fault_sim.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
    using namespace wrpt;
    stopwatch total;
    text_table t(
        "Ablation C: single weight tuple vs partitioned sessions\n"
        "(pathological circuit of paper section 5.3: AND(X) + NOR(X), "
        "width sweep)");
    t.set_header({"Width", "N single tuple", "N partitioned (sum)",
                  "sessions", "session means"});

    for (std::size_t width : {8, 12, 16, 20}) {
        const netlist nl = make_pathological(width);
        const auto faults = generate_full_faults(nl);
        cop_detect_estimator analysis;
        const partitioned_result res = optimize_partitioned(
            nl, faults, analysis, uniform_weights(nl));
        std::string means;
        for (const auto& s : res.sessions) {
            if (!means.empty()) means += " / ";
            means += format_fixed(mean_of(s.weights), 2);
        }
        t.add_row({std::to_string(width),
                   format_sci(res.single_session_length, 2),
                   format_sci(res.total_length, 2),
                   std::to_string(res.sessions.size()), means});
    }
    std::cout << t;

    // Verify by simulation on the 16-bit instance.
    const netlist nl = make_pathological(16);
    const auto faults = generate_full_faults(nl);
    cop_detect_estimator analysis;
    const partitioned_result res =
        optimize_partitioned(nl, faults, analysis, uniform_weights(nl));
    std::vector<bool> covered(faults.size(), false);
    std::uint64_t budget = 0;
    thread_pool pool;  // the simulations' one pool, hardware-sized
    for (const auto& s : res.sessions) {
        fault_sim_options fo;
        fo.max_patterns =
            static_cast<std::uint64_t>(s.test_length) + 64;
        fo.pool = &pool;
        budget += fo.max_patterns;
        const auto sim =
            run_weighted_fault_simulation(nl, faults, s.weights, 0xc3, fo);
        for (std::size_t i = 0; i < faults.size(); ++i)
            if (sim.first_detected[i].has_value()) covered[i] = true;
    }
    std::size_t detected = 0;
    for (bool c : covered)
        if (c) ++detected;
    std::printf(
        "\nSimulation check (width 16): the partitioned schedule detects\n"
        "%zu/%zu faults within its %llu-pattern total budget.\n"
        "(total %.2f s)\n\n",
        detected, faults.size(), static_cast<unsigned long long>(budget),
        total.seconds());
    return 0;
}
