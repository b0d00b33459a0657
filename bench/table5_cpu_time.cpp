// Table 5: CPU time of the optimizing procedure per circuit.
//
// The paper reports 300 s (S1) ... 2000 s (C7552) on a ~2.5 MIPS Siemens
// 7561. Absolute numbers on a modern CPU differ by orders of magnitude;
// the reproducible shape is the relative ordering across circuits and the
// near-independence of the per-input minimization from circuit size
// (paper section 4, observation 2). Each row is the median wall time of
// five runs. The threads-4 rows run the batched PREPARE path on
// per-thread engines over a pool of three workers plus the caller: their
// weights must equal the 1-thread rows'.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "exec/thread_pool.h"
#include "gen/suite.h"
#include "io/weights_io.h"
#include "opt/optimizer.h"
#include "prob/detect.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
    using namespace wrpt;
    text_table t(
        "Table 5: CPU time of the optimizing procedure\n"
        "(paper: seconds on a Siemens 7561; ours: median wall ms of 5 runs)");
    t.set_header({"Circuit", "threads", "CPU s (paper)", "ms (ours)",
                  "gates", "faults", "inputs", "N optimized"});

    thread_pool pool(3);  // with the caller: the threads-4 rows
    int mismatches = 0;
    stopwatch total;
    for (const auto& entry : hard_suite()) {
        const netlist nl = entry.build();
        const auto faults = generate_full_faults(nl);
        const bool threaded = entry.name == "c2670" || entry.name == "c7552";
        weight_vector one_thread;
        for (const unsigned threads : {1u, 4u}) {
            if (threads > 1 && !threaded) continue;
            optimize_result res;
            std::vector<double> ms;
            for (int r = 0; r < 5; ++r) {
                cop_detect_estimator analysis(&pool);
                analysis.set_threads(threads);
                stopwatch sw;
                res = optimize_weights(nl, faults, analysis,
                                       uniform_weights(nl));
                ms.push_back(sw.milliseconds());
            }
            std::nth_element(ms.begin(), ms.begin() + 2, ms.end());
            t.add_row({entry.name, std::to_string(threads),
                       format_fixed(entry.paper_cpu_seconds, 0),
                       format_fixed(ms[2], 1),
                       std::to_string(nl.stats().gate_count),
                       std::to_string(faults.size()),
                       std::to_string(nl.input_count()),
                       format_sci(res.final_test_length, 2)});
            if (threads == 1) one_thread = res.weights;
            if (res.weights != one_thread) {
                std::printf("MISMATCH: %s weights differ at %u threads\n",
                            entry.name.c_str(), threads);
                ++mismatches;
            }
        }
    }
    std::cout << t;
    std::printf(
        "\nShape check: every circuit optimizes in well under a second\n"
        "(the paper: 5 to 33 minutes), and the 4-thread rows reproduce\n"
        "the 1-thread weights.\n(total %.2f s)\n\n",
        total.seconds());
    return mismatches == 0 ? 0 : 1;
}
